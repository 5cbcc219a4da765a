package netem

import (
	"flexpass/internal/sim"
)

// Host is an end host: a NIC egress port toward its ToR plus a handler
// installed by the transport framework. Per the paper's footnote 6, the NIC
// is configured like an edge switch port (same queue layout), so credit
// rate limiting and selective dropping also apply at the edge.
type Host struct {
	id      NodeID
	name    string
	eng     *sim.Engine
	nic     *Port
	delay   sim.Time // host processing delay applied per transmitted packet
	handler func(*Packet)

	// Outbound frames waiting out the host processing delay. One event is
	// scheduled per Send (so event ordering is identical to scheduling a
	// closure per packet), but the frame rides this fifo, linked through
	// the frame itself, and the single pre-bound sendFn, not a fresh
	// closure: the delay is constant, so fifo order and event dispatch
	// order always agree, and waiting allocates nothing.
	delayed fifo
	sendFn  func()
	comp    sim.Component // profiling attribution for delayed-send events

	pool *PacketPool // packet free list; nil only outside a Network

	// RxPackets counts packets delivered to the handler.
	RxPackets int64
}

// NewHost creates a host. nic must already be constructed; the host takes
// ownership of it. A fabric carves its hosts from a per-engine slab
// instead (Network.NewHost).
func NewHost(eng *sim.Engine, id NodeID, name string, nic *Port, delay sim.Time) *Host {
	var s slab
	return s.host(eng, id, name, nic, delay)
}

// NodeID implements Node.
func (h *Host) NodeID() NodeID { return h.id }

// Name returns the host's label.
func (h *Host) Name() string { return h.name }

// NIC returns the host's egress port.
func (h *Host) NIC() *Port { return h.nic }

// SetHandler installs the receive callback. The transport framework calls
// this once per host. The frame is recycled when fn returns: fn must not
// retain the *Packet (see PacketPool).
func (h *Host) SetHandler(fn func(*Packet)) { h.handler = fn }

// NewPacket returns a zeroed packet for the caller to fill
// (`*pkt = Packet{...}`) and Send: a recycled or slab-carved frame, or a
// heap allocation on a host that was never added to a Network.
func (h *Host) NewPacket() *Packet {
	if h.pool != nil {
		return h.pool.get()
	}
	return &Packet{}
}

// Send transmits a packet from this host after the host processing delay.
func (h *Host) Send(pkt *Packet) {
	pkt.Src = h.id
	if h.delay > 0 {
		h.delayed.push(pkt)
		prev := h.eng.SetComponent(h.comp)
		h.eng.After(h.delay, h.sendFn)
		h.eng.SetComponent(prev)
		return
	}
	h.nic.Send(pkt)
}

// sendNext hands the oldest delayed frame to the NIC.
func (h *Host) sendNext() {
	h.nic.Send(h.delayed.pop())
}

// Receive implements Node: deliver to the transport handler, then recycle
// the frame — handlers must not retain it (see PacketPool).
func (h *Host) Receive(pkt *Packet) {
	h.RxPackets++
	if h.handler != nil {
		h.handler(pkt)
	}
	h.pool.put(pkt)
}
