package netem

import (
	"testing"

	"flexpass/internal/sim"
	"flexpass/internal/units"
)

// benchNode is a minimal peer that hands every arrival to a callback.
type benchNode struct {
	id     NodeID
	onRecv func(*Packet)
}

func (n *benchNode) NodeID() NodeID      { return n.id }
func (n *benchNode) Receive(pkt *Packet) { n.onRecv(pkt) }

func benchPort(eng *sim.Engine) *Port {
	return NewPort(eng, "bench", 40*units.Gbps, sim.Microsecond,
		PortConfig{Queues: []QueueConfig{{Name: "Q0"}}}, nil)
}

// BenchmarkPortForward measures one forwarded packet hop: enqueue,
// schedule, serialize, deliver. The sink re-injects a fresh frame per
// arrival so the port stays in self-clocked steady state; ns/op and
// allocs/op read as per-hop costs.
func BenchmarkPortForward(b *testing.B) {
	eng := sim.NewEngine(1)
	p := benchPort(eng)
	delivered := 0
	sink := &benchNode{id: 1}
	sink.onRecv = func(pkt *Packet) {
		delivered++
		p.Send(&Packet{Dst: 1, Size: MTUWire})
	}
	p.Connect(sink)
	for i := 0; i < 8; i++ {
		p.Send(&Packet{Dst: 1, Size: MTUWire})
	}
	eng.Run(eng.Now() + sim.Millisecond) // warm slices and free lists
	b.ReportAllocs()
	b.ResetTimer()
	target := delivered + b.N
	for delivered < target {
		eng.Run(eng.Now() + sim.Millisecond)
	}
}

// BenchmarkPortQueued measures one hop through a standing queue: the sink
// sends every arrival back into the port, behind the backlog of depth
// frames, so each op is an enqueue behind that backlog, a dequeue,
// serialization and delivery. BenchmarkPortForward is the uncongested hop.
func BenchmarkPortQueued(b *testing.B) {
	const depth = 64
	eng := sim.NewEngine(1)
	p := benchPort(eng)
	delivered := 0
	sink := &benchNode{id: 1}
	sink.onRecv = func(pkt *Packet) {
		delivered++
		p.Send(pkt)
	}
	p.Connect(sink)
	for i := 0; i < depth; i++ {
		p.Send(&Packet{Dst: 1, Size: MTUWire})
	}
	eng.Run(eng.Now() + sim.Millisecond) // warm the free lists
	b.ReportAllocs()
	b.ResetTimer()
	target := delivered + b.N
	for delivered < target {
		eng.Run(eng.Now() + sim.Millisecond)
	}
}

// benchHostHop measures the end-host injection path: NewPacket, Host.Send
// with a host processing delay, NIC serialization, propagation, handler
// dispatch at the peer, and the end of the frame's life. Two hosts
// ping-pong full frames.
func benchHostHop(b *testing.B, ha, hb *Host) {
	bounce := func(from *Host, to NodeID) {
		pkt := from.NewPacket()
		*pkt = Packet{Dst: to, Size: MTUWire}
		from.Send(pkt)
	}
	ha.SetHandler(func(pkt *Packet) { bounce(ha, hb.NodeID()) })
	hb.SetHandler(func(pkt *Packet) { bounce(hb, ha.NodeID()) })
	for i := 0; i < 4; i++ {
		bounce(ha, hb.NodeID())
	}
	eng := ha.eng
	eng.Run(eng.Now() + sim.Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	target := ha.RxPackets + hb.RxPackets + int64(b.N)
	for ha.RxPackets+hb.RxPackets < target {
		eng.Run(eng.Now() + sim.Millisecond)
	}
}

// BenchmarkHostHopNetwork is the hop as every fabric takes it: the hosts
// joined a Network, so frames recycle through its free list.
func BenchmarkHostHopNetwork(b *testing.B) {
	ha, hb, _ := poolPair(sim.NewEngine(1))
	benchHostHop(b, ha, hb)
}

// BenchmarkHostHopHandWired is the same hop between hosts that were never
// added to a Network (nil pool): one heap frame per bounce, the cost
// bench/units.go's hand-wired hosts pay.
func BenchmarkHostHopHandWired(b *testing.B) {
	ha, hb := hostPair(sim.NewEngine(1), nil)
	benchHostHop(b, ha, hb)
}
