package netem

import (
	"fmt"
	"slices"
	"testing"

	"flexpass/internal/sim"
	"flexpass/internal/units"
)

func TestSwitchRoutesToDestination(t *testing.T) {
	eng := sim.NewEngine(1)
	sw := NewSwitch(eng, 10, "sw", nil)
	dstA := &sink{id: 1, eng: eng}
	dstB := &sink{id: 2, eng: eng}
	mk := func(peer Node) *Port {
		p := NewPort(eng, "p", 10*units.Gbps, 0, PortConfig{Queues: []QueueConfig{{}}}, nil)
		p.Connect(peer)
		sw.AddPort(p)
		return p
	}
	pa, pb := mk(dstA), mk(dstB)
	sw.AddRoute(1, pa)
	sw.AddRoute(2, pb)
	sw.Receive(&Packet{Src: 5, Dst: 1, Size: 100})
	sw.Receive(&Packet{Src: 5, Dst: 2, Size: 100})
	sw.Receive(&Packet{Src: 5, Dst: 2, Size: 100})
	eng.Run(sim.Second)
	if len(dstA.arrived) != 1 || len(dstB.arrived) != 2 {
		t.Fatalf("arrivals = %d,%d want 1,2", len(dstA.arrived), len(dstB.arrived))
	}
}

func TestSwitchECMPSpreadsFlows(t *testing.T) {
	eng := sim.NewEngine(1)
	sw := NewSwitch(eng, 10, "sw", nil)
	dst := &sink{id: 1, eng: eng}
	var ports []*Port
	counts := make([]int, 4)
	for i := 0; i < 4; i++ {
		i := i
		p := NewPort(eng, "p", 10*units.Gbps, 0, PortConfig{Queues: []QueueConfig{{}}}, nil)
		// Count at egress via a per-port sink that forwards to dst.
		p.Connect(nodeFunc(func(pkt *Packet) {
			counts[i]++
			dst.Receive(pkt)
		}))
		sw.AddPort(p)
		ports = append(ports, p)
	}
	sw.AddRoute(1, ports...)
	for f := uint64(0); f < 400; f++ {
		sw.Receive(&Packet{Src: 5, Dst: 1, Flow: f, Size: 100})
	}
	eng.Run(sim.Second)
	for i, c := range counts {
		if c < 50 || c > 150 {
			t.Fatalf("ECMP imbalance: port %d got %d of 400", i, c)
		}
	}
}

func TestSwitchECMPSamePathPerFlow(t *testing.T) {
	eng := sim.NewEngine(1)
	sw := NewSwitch(eng, 10, "sw", nil)
	chosen := make(map[uint64]map[int]bool)
	var ports []*Port
	for i := 0; i < 4; i++ {
		i := i
		p := NewPort(eng, "p", 10*units.Gbps, 0, PortConfig{Queues: []QueueConfig{{}}}, nil)
		p.Connect(nodeFunc(func(pkt *Packet) {
			m := chosen[pkt.Flow]
			if m == nil {
				m = make(map[int]bool)
				chosen[pkt.Flow] = m
			}
			m[i] = true
		}))
		sw.AddPort(p)
		ports = append(ports, p)
	}
	sw.AddRoute(1, ports...)
	for f := uint64(0); f < 50; f++ {
		for k := 0; k < 5; k++ {
			sw.Receive(&Packet{Src: 5, Dst: 1, Flow: f, Size: 100})
		}
	}
	eng.Run(sim.Second)
	for f, m := range chosen {
		if len(m) != 1 {
			t.Fatalf("flow %d used %d ports, want 1", f, len(m))
		}
	}
}

func TestECMPHashSymmetric(t *testing.T) {
	for f := uint64(0); f < 100; f++ {
		a := ecmpHash(3, 7, f)
		b := ecmpHash(7, 3, f)
		if a != b {
			t.Fatalf("hash not symmetric for flow %d", f)
		}
	}
}

func TestHostSendAppliesDelayAndSrc(t *testing.T) {
	eng := sim.NewEngine(1)
	nic := NewPort(eng, "nic", 10*units.Gbps, 0, PortConfig{Queues: []QueueConfig{{}}}, nil)
	sk := &sink{id: 50, eng: eng}
	nic.Connect(sk)
	h := NewHost(eng, 7, "h7", nic, sim.Microsecond)
	h.Send(&Packet{Dst: 50, Size: 1250}) // 1us host delay + 1us tx
	eng.Run(sim.Second)
	if len(sk.arrived) != 1 {
		t.Fatal("packet not delivered")
	}
	if sk.arrived[0].Src != 7 {
		t.Fatalf("Src = %d, want 7", sk.arrived[0].Src)
	}
	if sk.at[0] != 2*sim.Microsecond {
		t.Fatalf("arrival at %v, want 2us", sk.at[0])
	}
}

func TestHostHandlerReceives(t *testing.T) {
	eng := sim.NewEngine(1)
	nic := NewPort(eng, "nic", 10*units.Gbps, 0, PortConfig{Queues: []QueueConfig{{}}}, nil)
	h := NewHost(eng, 7, "h7", nic, 0)
	var got *Packet
	h.SetHandler(func(p *Packet) { got = p })
	h.Receive(&Packet{Flow: 42})
	if got == nil || got.Flow != 42 {
		t.Fatal("handler not invoked")
	}
	if h.RxPackets != 1 {
		t.Fatalf("RxPackets = %d", h.RxPackets)
	}
}

// nodeFunc adapts a function to the Node interface for tests.
type nodeFunc func(*Packet)

func (f nodeFunc) NodeID() NodeID    { return -1 }
func (f nodeFunc) Receive(p *Packet) { f(p) }

// TestSwitchPanicsOnMissingRoute: a destination without a route is a
// config error, not a runtime condition — whether its table entry exists
// and is empty (an id below one that has a route) or lies beyond the
// table.
func TestSwitchPanicsOnMissingRoute(t *testing.T) {
	eng := sim.NewEngine(1)
	sw := NewSwitch(eng, 10, "sw", nil)
	p := NewPort(eng, "p", 10*units.Gbps, 0, PortConfig{Queues: []QueueConfig{{}}}, nil)
	p.Connect(&sink{id: 5, eng: eng})
	sw.AddRoute(5, p)
	for _, dst := range []NodeID{3, 6, 42, -1} {
		if !panics(func() { sw.Receive(&Packet{Dst: dst, Size: 100}) }) {
			t.Errorf("no panic for a packet to node %d", dst)
		}
	}
	if empty := NewSwitch(eng, 11, "empty", nil); !panics(func() { empty.Receive(&Packet{Dst: 0}) }) {
		t.Error("a switch without routes forwarded a packet")
	}
}

func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

func TestHostWithoutHandlerDropsSilently(t *testing.T) {
	eng := sim.NewEngine(1)
	nic := NewPort(eng, "nic", 10*units.Gbps, 0, PortConfig{Queues: []QueueConfig{{}}}, nil)
	h := NewHost(eng, 7, "h7", nic, 0)
	h.Receive(&Packet{Flow: 1}) // must not panic
	if h.RxPackets != 1 {
		t.Fatalf("RxPackets = %d", h.RxPackets)
	}
}

// TestECMPRouteGrowsByAddRoute: repeated AddRoutes append to a
// destination's ECMP set in order; destinations routed over the same port
// sequence share one interned group, and growing one of them leaves every
// other destination's set and order as it was.
func TestECMPRouteGrowsByAddRoute(t *testing.T) {
	eng := sim.NewEngine(1)
	sw := NewSwitch(eng, 10, "sw", nil)
	var p [3]*Port
	for i := range p {
		p[i] = NewPort(eng, fmt.Sprintf("p%d", i), 10*units.Gbps, 0, PortConfig{Queues: []QueueConfig{{}}}, nil)
		p[i].Connect(&sink{id: 1, eng: eng})
		sw.AddPort(p[i])
	}
	sw.AddRoute(1, p[0], p[1])
	sw.AddRoute(2, p[0], p[1])
	sw.AddRoute(3, p[0])
	sw.AddRoute(3, p[1]) // appends: the same sequence as 1 and 2
	sw.AddRoute(1, p[2]) // grows 1 alone
	sw.AddRoute(4, p[1], p[0])
	want := map[NodeID][]*Port{
		1: {p[0], p[1], p[2]},
		2: {p[0], p[1]},
		3: {p[0], p[1]},
		4: {p[1], p[0]}, // order is part of the set
	}
	for dst, ports := range want {
		if got := sw.groups[sw.routes[dst]]; !slices.Equal(got, ports) {
			t.Errorf("route to %d = %v, want %v", dst, got, ports)
		}
	}
	// The empty group, [p0] (3 on its way), and the three sets above.
	if len(sw.groups) != 5 {
		t.Errorf("%d groups, want 5: equal sequences must share one", len(sw.groups))
	}
	// The grown-by-appending route forwards over both its ports, and only
	// those.
	for f := uint64(0); f < 64; f++ {
		sw.Receive(&Packet{Dst: 3, Flow: f, Size: 100})
	}
	eng.Run(sim.Second)
	if p[0].Stats().TxPackets == 0 || p[1].Stats().TxPackets == 0 || p[2].Stats().TxPackets != 0 {
		t.Fatalf("route to 3 put %d/%d/%d packets on p0/p1/p2, want p0 and p1 only",
			p[0].Stats().TxPackets, p[1].Stats().TxPackets, p[2].Stats().TxPackets)
	}
}
