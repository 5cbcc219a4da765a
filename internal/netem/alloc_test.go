package netem

import (
	"testing"

	"flexpass/internal/sim"
	"flexpass/internal/units"
)

// hostPair builds two directly-connected hosts, added to net when it is
// non-nil (and so sharing its packet pool) and hand-wired otherwise.
func hostPair(eng *sim.Engine, net *Network) (ha, hb *Host) {
	mk := func(id NodeID, name string) *Host {
		nic := NewPort(eng, name+"-nic", 40*units.Gbps, sim.Microsecond,
			PortConfig{Queues: []QueueConfig{{Name: "Q0"}}}, nil)
		h := NewHost(eng, id, name, nic, sim.Microsecond)
		if net != nil {
			net.AddHost(h)
		}
		return h
	}
	ha, hb = mk(0, "a"), mk(1, "b")
	ha.NIC().Connect(hb)
	hb.NIC().Connect(ha)
	return ha, hb
}

// poolPair is hostPair on a network, plus the pool AddHost installed.
func poolPair(eng *sim.Engine) (*Host, *Host, *PacketPool) {
	net := NewNetwork(eng)
	ha, hb := hostPair(eng, net)
	return ha, hb, net.pool(eng)
}

// TestZeroAllocPooledHop pins the data-plane allocation budget: with the
// packet pool enabled and warm, a full host→host hop — NewPacket, Send
// through the host delay FIFO, NIC serialization, delivery, handler,
// recycle — performs zero heap allocations.
func TestZeroAllocPooledHop(t *testing.T) {
	eng := sim.NewEngine(1)
	ha, hb, _ := poolPair(eng)
	hb.SetHandler(func(pkt *Packet) {})
	dst := hb.NodeID()
	send := func() {
		pkt := ha.NewPacket()
		*pkt = Packet{Dst: dst, Size: MTUWire}
		ha.Send(pkt)
	}
	for i := 0; i < 32; i++ {
		send()
	}
	eng.Run(eng.Now() + sim.Millisecond) // warm queues, pipes, free lists
	allocs := testing.AllocsPerRun(500, func() {
		send()
		eng.Run(eng.Now() + sim.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("pooled hop allocates %.1f objects/op, want 0", allocs)
	}
}

// TestPoolRecyclesFrames checks the ownership contract end to end: every
// consumed frame comes back, and a warm steady state stops allocating
// fresh packets entirely.
func TestPoolRecyclesFrames(t *testing.T) {
	eng := sim.NewEngine(1)
	ha, hb, pool := poolPair(eng)
	hb.SetHandler(func(pkt *Packet) {})
	dst := hb.NodeID()
	const rounds = 200
	for i := 0; i < rounds; i++ {
		pkt := ha.NewPacket()
		*pkt = Packet{Dst: dst, Size: MTUWire}
		ha.Send(pkt)
		eng.Run(eng.Now() + sim.Millisecond)
	}
	if pool.Recycled != rounds {
		t.Fatalf("recycled %d frames, want %d", pool.Recycled, rounds)
	}
	// Sequential sends reuse one frame: after the first miss the pool
	// never allocates again.
	if pool.Fresh != 1 {
		t.Fatalf("allocated %d fresh frames, want 1", pool.Fresh)
	}
	if hb.RxPackets != rounds {
		t.Fatalf("delivered %d packets, want %d", hb.RxPackets, rounds)
	}
}

// TestPoolRecyclesDrops verifies dropping ports return frames to the pool
// rather than leaking them to the collector.
func TestPoolRecyclesDrops(t *testing.T) {
	eng := sim.NewEngine(1)
	net := NewNetwork(eng)
	nic := NewPort(eng, "nic", 40*units.Gbps, sim.Microsecond,
		PortConfig{Queues: []QueueConfig{{Name: "Q0", CapBytes: 2 * MTUWire}}}, nil)
	h := NewHost(eng, net.AllocID(), "h", nic, 0)
	net.AddHost(h)
	nic.Connect(h) // loop back; destination unimportant for drop counting
	pool := net.pool(eng)

	// Burst past the 2-frame private cap in zero simulated time: the
	// overflow must be recycled immediately.
	for i := 0; i < 10; i++ {
		pkt := h.NewPacket()
		*pkt = Packet{Dst: h.NodeID(), Size: MTUWire}
		h.Send(pkt)
	}
	if nic.QueueStats(0).Dropped == 0 {
		t.Fatal("expected private-cap drops")
	}
	if pool.Recycled != nic.QueueStats(0).Dropped {
		t.Fatalf("recycled %d, want %d (one per drop)", pool.Recycled, nic.QueueStats(0).Dropped)
	}
}
