package netem

import (
	"flexpass/internal/sim"
)

// Hop observation: an optional per-packet path log fed at every enqueue,
// dequeue, and drop on every egress port (switch ports and host NICs
// alike). Like the trace.Ring convention elsewhere in the repository, the
// hooks are nil-no-ops — a port without an observer pays a single nil
// check per event — so forensic instrumentation can stay wired in
// permanently and disabled runs behave identically.
//
// Observers must be strictly read-only: they may inspect the port, queue
// state, and packet, but must not mutate them, send packets, or schedule
// events, or they would perturb the simulation they are watching; and they
// must not retain a *Packet past the callback (see PacketPool).

// DropReason says why a port discarded a packet.
type DropReason uint8

// Drop reasons.
const (
	// DropRedThreshold: color-aware selective dropping of a Red packet
	// (queue red-byte occupancy would exceed RedDropThreshold).
	DropRedThreshold DropReason = iota
	// DropPrivateCap: the queue's private CapBytes was exhausted.
	DropPrivateCap
	// DropSharedBuffer: the Choudhury–Hahne dynamic threshold refused
	// admission to the shared buffer.
	DropSharedBuffer
	// DropFault: injected non-congestion loss (SetLossRate /
	// SetGilbertElliott burst loss).
	DropFault
	// DropLinkDown: the port was administratively down (SetDown).
	DropLinkDown
	// DropCreditLoss: credit-targeted injected loss (SetCreditLossRate).
	DropCreditLoss
)

var dropReasonNames = [...]string{
	"red-threshold", "private-cap", "shared-buffer", "fault",
	"link-down", "credit-loss",
}

// String names the reason.
func (r DropReason) String() string {
	if int(r) < len(dropReasonNames) {
		return dropReasonNames[r]
	}
	return "unknown"
}

// HopObserver watches packet events on a port. queue is the queue index
// the packet mapped to (-1 for fault drops, which happen before
// classification). All callbacks run inside the port's own event, with
// now == eng.Now().
type HopObserver interface {
	// HopEnqueue fires after a packet is accepted into queue q.
	// qBytes is the queue's byte occupancy including pkt.
	HopEnqueue(now sim.Time, p *Port, queue int, pkt *Packet, qBytes int64)
	// HopDequeue fires when the scheduler starts serializing pkt.
	// waited is the time spent queued at this port; tx is the
	// serialization time about to be spent on the wire.
	HopDequeue(now sim.Time, p *Port, queue int, pkt *Packet, waited, tx sim.Time)
	// HopDrop fires when the port discards pkt.
	HopDrop(now sim.Time, p *Port, queue int, pkt *Packet, reason DropReason)
}

// SetHopObserver installs (or, with nil, removes) the port's observer.
func (p *Port) SetHopObserver(o HopObserver) { p.hop = o }

// SetHopObserver installs the observer on every egress port of the switch.
func (s *Switch) SetHopObserver(o HopObserver) {
	for _, p := range s.ports {
		p.SetHopObserver(o)
	}
}

// SetHopObserver installs the observer on the host's NIC.
func (h *Host) SetHopObserver(o HopObserver) { h.nic.SetHopObserver(o) }

// SetHopObserver installs the observer on every port in the network
// (switch egresses and host NICs).
func (n *Network) SetHopObserver(o HopObserver) {
	for _, s := range n.Switches {
		s.SetHopObserver(o)
	}
	for _, h := range n.Hosts {
		h.SetHopObserver(o)
	}
}
