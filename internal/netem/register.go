package netem

import (
	"fmt"

	"flexpass/internal/obs"
)

// This file wires the fabric's existing *Stats structs into the obs
// registry so the periodic prober can turn them into time series —
// cumulative counters become per-interval deltas (port utilisation,
// drop/mark rates) and occupancies become instant gauges (queue depth,
// shared-buffer usage). All Register methods are nil-safe on reg, so
// construction code calls them unconditionally.

// Register exposes the port's transmit counters and per-queue state
// under "port/<name>" and "port/<name>/q<i>".
func (p *Port) Register(reg *obs.Registry) {
	if reg == nil {
		return
	}
	ent := "port/" + p.name
	reg.CounterFunc(ent, "tx_bytes", func() int64 { return p.stats.TxBytes })
	reg.CounterFunc(ent, "tx_packets", func() int64 { return p.stats.TxPackets })
	reg.CounterFunc(ent, "faults_injected", func() int64 { return p.faults.Injected })
	// Per-cause injected-loss breakdown (see FaultStats): registered
	// unconditionally so degradation artifacts can attribute every
	// injected drop to the fault event that caused it.
	reg.CounterFunc(ent, "faults_link_down", func() int64 { return p.faults.LinkDown })
	reg.CounterFunc(ent, "faults_burst_loss", func() int64 { return p.faults.BurstLoss })
	reg.CounterFunc(ent, "faults_credit_loss", func() int64 { return p.faults.CreditLoss })
	for i, q := range p.queues {
		q := q
		qe := fmt.Sprintf("%s/q%d", ent, i)
		reg.Gauge(qe, "bytes", q.lenBytes)
		reg.Gauge(qe, "red_bytes", func() int64 { return q.redB })
		reg.CounterFunc(qe, "dropped", func() int64 { return q.stats.Dropped })
		reg.CounterFunc(qe, "dropped_red", func() int64 { return q.stats.DroppedRed })
		reg.CounterFunc(qe, "marked", func() int64 { return q.stats.Marked })
		reg.CounterFunc(qe, "enqueued_bytes", func() int64 { return q.stats.EnqueuedB })
	}
}

// Register exposes the switch's ingress counter, shared-buffer occupancy
// under "switch/<name>", and every egress port.
func (s *Switch) Register(reg *obs.Registry) {
	if reg == nil {
		return
	}
	ent := "switch/" + s.name
	reg.CounterFunc(ent, "rx_packets", func() int64 { return s.RxPackets })
	if s.shared != nil {
		reg.Gauge(ent, "shared_buffer_bytes", s.shared.Used)
	}
	for _, p := range s.ports {
		p.Register(reg)
	}
}

// Register exposes the host's ingress counter under "host/<name>" and
// its NIC port.
func (h *Host) Register(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.CounterFunc("host/"+h.name, "rx_packets", func() int64 { return h.RxPackets })
	h.nic.Register(reg)
}
