package netem

import (
	"strconv"

	"flexpass/internal/obs"
)

// This file wires the fabric's existing *Stats fields into the obs
// registry by address, so the periodic prober turns them into time series
// by reading memory — cumulative counters become per-interval deltas
// (port utilisation, drop/mark rates) and occupancies become instant
// gauges (queue depth, shared-buffer usage). All Register methods are
// nil-safe on reg, so construction code calls them unconditionally.
//
// Each Register has a Sources twin that counts what it registers from the
// same metric lists, so a caller can size the registry once
// (obs.Registry.Grow) before a whole fabric registers.

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

func register[T any](reg *obs.Registry, ent string, x T, ms []metric[T]) {
	for _, m := range ms {
		if m.gauge {
			reg.GaugeAt(ent, m.name, m.at(x))
		} else {
			reg.CounterAt(ent, m.name, m.at(x))
		}
	}
}

// Register exposes the port's transmit counters and per-queue state
// under "port/<name>" and "port/<name>/q<i>".
func (p *Port) Register(reg *obs.Registry) {
	if reg == nil {
		return
	}
	ent := "port/" + p.name
	register(reg, ent, p, portMetrics[:])
	for i := range p.queues {
		register(reg, ent+"/q"+strconv.Itoa(i), &p.queues[i], queueMetrics[:])
	}
}

// Sources counts the sources Register registers.
func (p *Port) Sources() int {
	return len(portMetrics) + len(p.queues)*len(queueMetrics)
}

// Register exposes the switch's ingress counter, shared-buffer occupancy
// under "switch/<name>", and every egress port.
func (s *Switch) Register(reg *obs.Registry) {
	if reg == nil {
		return
	}
	ent := "switch/" + s.name
	reg.CounterAt(ent, "rx_packets", &s.RxPackets)
	if s.shared != nil {
		reg.GaugeAt(ent, "shared_buffer_bytes", &s.shared.used)
	}
	for _, p := range s.ports {
		p.Register(reg)
	}
}

// Sources counts the sources Register registers.
func (s *Switch) Sources() int {
	n := 1
	if s.shared != nil {
		n++
	}
	for _, p := range s.ports {
		n += p.Sources()
	}
	return n
}

// Register exposes the host's ingress counter under "host/<name>" and
// its NIC port.
func (h *Host) Register(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.CounterAt("host/"+h.name, "rx_packets", &h.RxPackets)
	h.nic.Register(reg)
}

// Sources counts the sources Register registers.
func (h *Host) Sources() int { return 1 + h.nic.Sources() }
