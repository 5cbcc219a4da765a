package netem

// PacketPool is the free list every frame of a fabric comes from and
// returns to. A Network keeps one per engine (one goroutine, so no lock)
// and installs it on each node as it joins; a frame that crosses a shard
// cut is returned to the receiving engine's list. Only a node never added
// to a Network has a nil pool and allocates from the heap.
//
// Ownership contract, unconditional:
//
//   - Endpoints allocate outgoing frames with Host.NewPacket and hand them
//     to Host.Send. The network owns the packet from that point on.
//   - A packet is recycled exactly once, at the end of its life: by
//     Host.Receive after the transport handler returns, or by the dropping
//     Port when admission fails.
//   - Consumers — transport Handle callbacks and HopObservers — must not
//     retain a *Packet past the callback; copy what they need. All
//     in-repo transports and observers obey this.
//
// Recycling never changes simulation results: TestGoldenDigestPooled
// strips the pools (SetPool(nil)) and requires identical digests, so a
// consumer that retains a frame fails a test. The free list is a stack
// linked through Packet.next over slabs of packetSlab frames; recycling a
// frame already on it panics, as the frame would have two owners.
type PacketPool struct {
	free *Packet  // top of the free stack
	slab []Packet // frames not yet handed out

	// Recycled and Fresh count put calls and first-time frames
	// (observability; a healthy steady state recycles nearly everything).
	Recycled int64
	Fresh    int64
}

const packetSlab = 64 // frames a PacketPool carves at once

// get returns a zeroed packet, reusing a recycled one when available.
func (p *PacketPool) get() *Packet {
	if pkt := p.free; pkt != nil {
		p.free = pkt.next
		*pkt = Packet{}
		return pkt
	}
	if len(p.slab) == 0 {
		p.slab = make([]Packet, packetSlab)
	}
	pkt := &p.slab[0]
	p.slab = p.slab[1:]
	p.Fresh++
	return pkt
}

// put returns a consumed packet to the free list. Nil pools and nil
// packets no-op, so call sites need no guards; a packet already on the
// free list panics.
func (p *PacketPool) put(pkt *Packet) {
	if p == nil || pkt == nil {
		return
	}
	if pkt.free {
		panic("netem: frame recycled twice")
	}
	pkt.free = true
	pkt.next = p.free
	p.free = pkt
	p.Recycled++
}

// SetPool installs pool on every egress port of the switch, present and
// future; nil (tests only) selects the heap reference path.
func (s *Switch) SetPool(pool *PacketPool) {
	s.pool = pool
	for _, p := range s.ports {
		p.pool = pool
	}
}

// SetPool installs pool on the host and its NIC (see Switch.SetPool).
func (h *Host) SetPool(pool *PacketPool) {
	h.pool = pool
	h.nic.pool = pool
}
