package netem

import (
	"runtime"
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
	eng.Run(eng.Now() + sim.Millisecond) // warm the free lists and the event heap
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

// TestPoolDoubleRecyclePanics: a frame recycled while it is already on the
// free list would have two owners, so the second put panics. A frame taken
// back off the list may be recycled again.
func TestPoolDoubleRecyclePanics(t *testing.T) {
	ha, _, pool := poolPair(sim.NewEngine(1))
	pkt := ha.NewPacket()
	pool.put(pkt)
	if got := ha.NewPacket(); got != pkt {
		t.Fatal("the free list did not hand back the frame just recycled")
	}
	pool.put(pkt)
	defer func() {
		if recover() == nil {
			t.Fatal("recycling a frame twice did not panic")
		}
	}()
	pool.put(pkt)
}

// TestQueueGrowthAllocatesNothing: with the pool and the engine warm, a
// burst through a host whose delay FIFO, NIC queue and wire have never held
// a frame allocates nothing. Frames link through themselves, so no FIFO
// grows with its backlog.
func TestQueueGrowthAllocatesNothing(t *testing.T) {
	const burst = 1000
	eng := sim.NewEngine(1)
	ha, hb, pool := poolPair(eng)
	hb.SetHandler(func(*Packet) {})
	frames := make([]*Packet, burst)
	for i := range frames {
		frames[i] = ha.NewPacket()
	}
	for _, pkt := range frames {
		pool.put(pkt)
	}
	for i := 0; i < 2*burst; i++ {
		eng.After(sim.Nanosecond, func() {})
	}
	eng.Run(eng.Now() + sim.Microsecond)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < burst; i++ {
		pkt := ha.NewPacket()
		*pkt = Packet{Dst: hb.NodeID(), Size: MTUWire}
		ha.Send(pkt)
	}
	eng.Run(eng.Now() + sim.Millisecond)
	runtime.ReadMemStats(&after)
	if hb.RxPackets != burst {
		t.Fatalf("delivered %d of %d frames", hb.RxPackets, burst)
	}
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("a %d-frame burst through a fresh port made %d heap objects, want 0", burst, n)
	}
}

// TestPortBuildAllocs bounds what one port costs to build with the paper's
// three-queue layout (topo.FlexPassProfile). A standalone port (NewPort)
// is the port, its queues by value, its bands and their one queue array;
// its three events are the port itself (portTxDone, portDeliver,
// portWake), so they cost nothing. A port carved from a Network's slab
// (Network.NewPort) costs nothing of its own: everything comes from
// arrays shared with the engine's other ports, whose allocations the
// per-port mean truncates away. With a pre-bound callback per event the
// rows were 7 and 3.
func TestPortBuildAllocs(t *testing.T) {
	eng := sim.NewEngine(1)
	shared := NewSharedBuffer(4*units.MB, 0.25)
	cfg := PortConfig{Queues: []QueueConfig{
		{Name: "Q0-credit", Band: 0, CapBytes: units.KB, RateLimit: CreditRateFor(100*units.Gbps, 0.5)},
		{Name: "Q1-flex", Band: 1, Weight: 0.5, ECNThreshold: 65 * units.KB, RedDropThreshold: 150 * units.KB},
		{Name: "Q2-legacy", Band: 1, Weight: 0.5, ECNThreshold: 100 * units.KB},
	}}
	net := NewNetwork(eng)
	for _, tc := range []struct {
		name  string
		build func() *Port
		want  float64
	}{
		{"standalone", func() *Port { return NewPort(eng, "p", 100*units.Gbps, sim.Microsecond, cfg, shared) }, 4},
		{"slab", func() *Port { return net.NewPort(eng, "p", 100*units.Gbps, sim.Microsecond, cfg, shared) }, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			allocs := testing.AllocsPerRun(100, func() { tc.build() })
			t.Logf("%.0f heap objects", allocs)
			if allocs > tc.want {
				t.Fatalf("a three-queue port made %.0f heap objects, want <= %.0f", allocs, tc.want)
			}
			p := tc.build()
			if p.NumQueues() != 3 || len(p.bands) != 2 || len(p.bands[1].qs) != 2 || p.bands[1].qs[1] != &p.queues[2] {
				t.Fatalf("port layout: %d queues, bands %v", p.NumQueues(), p.bands)
			}
		})
	}
}
