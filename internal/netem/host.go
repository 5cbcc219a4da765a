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
	handler Handler

	// Outbound frames waiting out the host processing delay. One event is
	// scheduled per Send (so event ordering is identical to scheduling a
	// closure per packet), but the frame rides this fifo, linked through
	// the frame itself, and the event is the host's own (hostSend), not a
	// closure: the delay is constant, so fifo order and event dispatch
	// order always agree, and waiting allocates nothing.
	delayed fifo
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

// Handler receives the frames delivered to a host. The frame is recycled
// when Handle returns: Handle must not retain the *Packet (see PacketPool).
type Handler interface{ Handle(pkt *Packet) }

// handlerFunc adapts a function to Handler.
type handlerFunc func(*Packet)

func (f handlerFunc) Handle(pkt *Packet) { f(pkt) }

// Attach installs r as the host's receive handler; nil detaches. The
// transport framework attaches each host's agent once.
func (h *Host) Attach(r Handler) { h.handler = r }

// SetHandler installs fn as the receive handler (see Attach); nil detaches.
func (h *Host) SetHandler(fn func(*Packet)) {
	if fn == nil {
		h.handler = nil
		return
	}
	h.handler = handlerFunc(fn)
}

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
		h.eng.ScheduleAfter(h.delay, (*hostSend)(h))
		h.eng.SetComponent(prev)
		return
	}
	h.nic.Send(pkt)
}

// hostSend is the host's delayed-send event: it hands the oldest delayed
// frame to the NIC.
type hostSend Host

func (h *hostSend) Fire() { h.nic.Send(h.delayed.pop()) }

// Receive implements Node: deliver to the transport handler, then recycle
// the frame — handlers must not retain it (see PacketPool).
func (h *Host) Receive(pkt *Packet) {
	h.RxPackets++
	if h.handler != nil {
		h.handler.Handle(pkt)
	}
	h.pool.put(pkt)
}
