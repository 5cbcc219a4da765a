package netem

import (
	"strconv"
	"strings"

	"flexpass/internal/obs"
)

// This file wires the fabric's existing *Stats fields into the obs
// registry by address, so the periodic prober turns them into time series
// by reading memory — cumulative counters become per-interval deltas
// (port utilisation, drop/mark rates) and occupancies become instant
// gauges (queue depth, shared-buffer usage).
//
// One call registers a whole fabric (Network.Register), walking it twice
// with the same code: the first walk counts each registry's sources and
// name bytes, the second cuts every entity name from one string table per
// registry and registers, so a registry is grown once (obs.Registry.Grow)
// and its names are one allocation, not one per entity.

// metric is one registered stats field of a T: its name, whether the
// prober samples it as an instant gauge or a cumulative counter, and
// where it is kept.
type metric[T any] struct {
	name  string
	gauge bool
	at    func(T) *int64
}

// portMetrics are registered under "port/<name>". The per-cause
// injected-loss breakdown (see FaultStats) is registered unconditionally
// so degradation artifacts can attribute every injected drop to the
// fault event that caused it.
var portMetrics = [...]metric[*Port]{
	{"tx_bytes", false, func(p *Port) *int64 { return &p.stats.TxBytes }},
	{"tx_packets", false, func(p *Port) *int64 { return &p.stats.TxPackets }},
	{"faults_injected", false, func(p *Port) *int64 { return &p.faults.Injected }},
	{"faults_link_down", false, func(p *Port) *int64 { return &p.faults.LinkDown }},
	{"faults_burst_loss", false, func(p *Port) *int64 { return &p.faults.BurstLoss }},
	{"faults_credit_loss", false, func(p *Port) *int64 { return &p.faults.CreditLoss }},
}

// queueMetrics are registered under "port/<name>/q<i>".
var queueMetrics = [...]metric[*queue]{
	{"bytes", true, func(q *queue) *int64 { return &q.bytes }},
	{"red_bytes", true, func(q *queue) *int64 { return &q.redB }},
	{"dropped", false, func(q *queue) *int64 { return &q.stats.Dropped }},
	{"dropped_red", false, func(q *queue) *int64 { return &q.stats.DroppedRed }},
	{"marked", false, func(q *queue) *int64 { return &q.stats.Marked }},
	{"enqueued_bytes", false, func(q *queue) *int64 { return &q.stats.EnqueuedB }},
}

// table is one registry's share of a fabric: while reg is nil it counts
// the sources and entity-name bytes a walk visits, after that it
// registers them with names cut from b.
type table struct {
	reg           *obs.Registry
	sources, size int
	b             strings.Builder
}

// entity returns the parts joined, a name cut from b.
func (t *table) entity(parts ...string) string {
	from := t.b.Len()
	for _, s := range parts {
		t.size += len(s)
		if t.reg != nil {
			t.b.WriteString(s)
		}
	}
	return t.b.String()[from:]
}

// at registers (or counts) one source.
func (t *table) at(ent, name string, gauge bool, v *int64) {
	switch {
	case t.reg == nil:
		t.sources++
	case gauge:
		t.reg.GaugeAt(ent, name, v)
	default:
		t.reg.CounterAt(ent, name, v)
	}
}

func register[T any](t *table, ent string, x T, ms []metric[T]) {
	for _, m := range ms {
		t.at(ent, m.name, m.gauge, m.at(x))
	}
}

// Register exposes every node to the registry of the plane that runs it,
// regs[switchPlane[i]] for switch i and regs[hostPlane[i]] for host i (a
// nil list puts every node on plane 0), growing each registry once for
// its sources and spare more. Switches register first: "switch/<name>"
// (ingress count, shared-buffer bytes), then each egress port as
// "port/<name>" and "port/<name>/q<i>"; then each host as "host/<name>"
// and its NIC. A nil registry's nodes register nothing.
func (n *Network) Register(regs []*obs.Registry, switchPlane, hostPlane []int, spare int) {
	tabs := make([]table, len(regs))
	n.register(tabs, switchPlane, hostPlane)
	for i, reg := range regs {
		if reg != nil {
			reg.Grow(tabs[i].sources + spare)
			tabs[i].b.Grow(tabs[i].size)
			tabs[i].reg = reg
		}
	}
	n.register(tabs, switchPlane, hostPlane)
}

// register walks the network in registration order.
func (n *Network) register(tabs []table, switchPlane, hostPlane []int) {
	plane := func(planes []int, i int) *table {
		if planes == nil {
			return &tabs[0]
		}
		return &tabs[planes[i]]
	}
	for i, s := range n.Switches {
		t := plane(switchPlane, i)
		ent := t.entity("switch/", s.name)
		t.at(ent, "rx_packets", false, &s.RxPackets)
		if s.shared != nil {
			t.at(ent, "shared_buffer_bytes", true, &s.shared.used)
		}
		for _, p := range s.ports {
			p.register(t)
		}
	}
	for i, h := range n.Hosts {
		t := plane(hostPlane, i)
		t.at(t.entity("host/", h.name), "rx_packets", false, &h.RxPackets)
		h.nic.register(t)
	}
}

func (p *Port) register(t *table) {
	register(t, t.entity("port/", p.name), p, portMetrics[:])
	for i := range p.queues {
		register(t, t.entity("port/", p.name, "/q", strconv.Itoa(i)), &p.queues[i], queueMetrics[:])
	}
}
