package netem

import (
	"fmt"

	"flexpass/internal/obs"
)

// This file wires the fabric's existing *Stats fields into the obs
// registry by address, so the periodic prober turns them into time series
// by reading memory — cumulative counters become per-interval deltas
// (port utilisation, drop/mark rates) and occupancies become instant
// gauges (queue depth, shared-buffer usage). All Register methods are
// nil-safe on reg, so construction code calls them unconditionally.

// Register exposes the port's transmit counters and per-queue state
// under "port/<name>" and "port/<name>/q<i>".
func (p *Port) Register(reg *obs.Registry) {
	if reg == nil {
		return
	}
	ent := "port/" + p.name
	reg.CounterAt(ent, "tx_bytes", &p.stats.TxBytes)
	reg.CounterAt(ent, "tx_packets", &p.stats.TxPackets)
	reg.CounterAt(ent, "faults_injected", &p.faults.Injected)
	// Per-cause injected-loss breakdown (see FaultStats): registered
	// unconditionally so degradation artifacts can attribute every
	// injected drop to the fault event that caused it.
	reg.CounterAt(ent, "faults_link_down", &p.faults.LinkDown)
	reg.CounterAt(ent, "faults_burst_loss", &p.faults.BurstLoss)
	reg.CounterAt(ent, "faults_credit_loss", &p.faults.CreditLoss)
	for i, q := range p.queues {
		qe := fmt.Sprintf("%s/q%d", ent, i)
		reg.GaugeAt(qe, "bytes", &q.bytes)
		reg.GaugeAt(qe, "red_bytes", &q.redB)
		reg.CounterAt(qe, "dropped", &q.stats.Dropped)
		reg.CounterAt(qe, "dropped_red", &q.stats.DroppedRed)
		reg.CounterAt(qe, "marked", &q.stats.Marked)
		reg.CounterAt(qe, "enqueued_bytes", &q.stats.EnqueuedB)
	}
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

// Register exposes the host's ingress counter under "host/<name>" and
// its NIC port.
func (h *Host) Register(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.CounterAt("host/"+h.name, "rx_packets", &h.RxPackets)
	h.nic.Register(reg)
}
