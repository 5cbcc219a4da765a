package topo

import (
	"cmp"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"flexpass/internal/netem"
	"flexpass/internal/sim"
	"flexpass/internal/units"
)

func testParams() Params {
	return Params{
		LinkRate:  40 * units.Gbps,
		LinkDelay: 2 * sim.Microsecond,
		HostDelay: 1 * sim.Microsecond,
		SwitchBuf: 4500 * units.KB,
		BufAlpha:  0.25,
		Profile:   FlexPassProfile(Spec{}),
	}
}

// deliver sends one packet from host src to host dst and returns the
// arrival time, or -1 if it never arrived.
func deliver(t *testing.T, f *Fabric, src, dst int) sim.Time {
	t.Helper()
	eng := f.Net.Eng
	arrived := sim.Time(-1)
	f.Net.Host(dst).SetHandler(func(p *netem.Packet) { arrived = eng.Now() })
	pkt := &netem.Packet{
		Kind:  netem.KindLegacyData,
		Class: netem.ClassLegacy,
		Dst:   f.Net.Host(dst).NodeID(),
		Flow:  uint64(src*1000 + dst),
		Size:  netem.MTUWire,
	}
	start := eng.Now()
	f.Net.Host(src).Send(pkt)
	eng.Run(eng.Now() + 10*sim.Millisecond)
	if arrived < 0 {
		return -1
	}
	return arrived - start
}

func TestSingleSwitchConnectivity(t *testing.T) {
	eng := sim.NewEngine(1)
	f := SingleSwitch(eng, 4, testParams())
	for s := 0; s < 4; s++ {
		for d := 0; d < 4; d++ {
			if s == d {
				continue
			}
			if got := deliver(t, f, s, d); got < 0 {
				t.Fatalf("no delivery %d->%d", s, d)
			}
		}
	}
}

func TestDumbbellConnectivityAndBottleneck(t *testing.T) {
	eng := sim.NewEngine(1)
	f := Dumbbell(eng, 2, 2, 10*units.Gbps, testParams())
	bottleneck := f.Net.Switches[0].Ports()[0]
	if bottleneck.Name() != "core:fwd" {
		t.Fatalf("left switch's first port is %s, not the bottleneck", bottleneck.Name())
	}
	if got := deliver(t, f, 0, 2); got < 0 {
		t.Fatal("left->right delivery failed")
	}
	if bottleneck.Stats().TxPackets == 0 {
		t.Fatal("bottleneck did not carry the packet")
	}
}

func TestPaperClosShape(t *testing.T) {
	c := PaperClos
	if c.Hosts() != 192 {
		t.Fatalf("paper Clos has %d hosts, want 192", c.Hosts())
	}
	eng := sim.NewEngine(1)
	f := Clos(eng, c, testParams())
	if len(f.Net.Hosts) != 192 {
		t.Fatalf("built %d hosts", len(f.Net.Hosts))
	}
	// 8 core + 16 agg + 32 ToR = 56 switches.
	if len(f.Net.Switches) != 56 {
		t.Fatalf("built %d switches, want 56", len(f.Net.Switches))
	}
	// 32 ToR × 2 uplinks.
	if len(f.TorUplinks) != 64 {
		t.Fatalf("%d ToR uplinks, want 64", len(f.TorUplinks))
	}
	// Racks: 6 hosts per rack, 32 racks.
	if c.Group(0) != 0 || c.Group(5) != 0 || c.Group(6) != 1 || c.Group(191) != 31 {
		t.Fatalf("rack assignment wrong: %d %d %d %d", c.Group(0), c.Group(5), c.Group(6), c.Group(191))
	}
}

// fabricNames lists a fabric's switch, host and port names, ports in EachPort
// order.
func fabricNames(f *Fabric) (switches, hosts, ports []string) {
	for _, sw := range f.Net.Switches {
		switches = append(switches, sw.Name())
	}
	for _, h := range f.Net.Hosts {
		hosts = append(hosts, h.Name())
	}
	f.Net.EachPort(func(p *netem.Port) { ports = append(ports, p.Name()) })
	return switches, hosts, ports
}

// closNames is the Sprintf formula for a Clos's names: what the builder
// wrote before it kept one name table, and what fault globs and artifact
// entities key on.
func closNames(c ClosParams) (switches, hosts, ports []string) {
	up := c.Cores / c.AggPerPod
	for i := 0; i < c.Cores; i++ {
		switches = append(switches, fmt.Sprintf("core%d", i))
	}
	for pod := 0; pod < c.Pods; pod++ {
		for a := 0; a < c.AggPerPod; a++ {
			switches = append(switches, fmt.Sprintf("agg%d.%d", pod, a))
		}
		for t := 0; t < c.TorPerPod; t++ {
			switches = append(switches, fmt.Sprintf("tor%d.%d", pod, t))
		}
	}
	for i := 0; i < c.Cores; i++ {
		for pod := 0; pod < c.Pods; pod++ {
			ports = append(ports, fmt.Sprintf("agg%d.%d<->core%d:rev", pod, i/up, i))
		}
	}
	var nics []string
	for pod := 0; pod < c.Pods; pod++ {
		for a := 0; a < c.AggPerPod; a++ {
			for t := 0; t < c.TorPerPod; t++ {
				ports = append(ports, fmt.Sprintf("tor%d.%d<->agg%d.%d:rev", pod, t, pod, a))
			}
			for u := 0; u < up; u++ {
				ports = append(ports, fmt.Sprintf("agg%d.%d<->core%d:fwd", pod, a, a*up+u))
			}
		}
		for t := 0; t < c.TorPerPod; t++ {
			tor := fmt.Sprintf("tor%d.%d", pod, t)
			for h := 0; h < c.HostsPerTor; h++ {
				name := fmt.Sprintf("h%d.%d.%d", pod, t, h)
				hosts = append(hosts, name)
				nics = append(nics, name+":nic")
				ports = append(ports, tor+"->"+name)
			}
			for a := 0; a < c.AggPerPod; a++ {
				ports = append(ports, fmt.Sprintf("%s<->agg%d.%d:fwd", tor, pod, a))
			}
		}
	}
	return switches, hosts, append(ports, nics...)
}

// TestFabricNames holds every switch, host and port name of each builder,
// at one and two shards for a Clos, to the formula it replaced: an index
// or a separator out of place in the name table fails here.
func TestFabricNames(t *testing.T) {
	type want struct{ switches, hosts, ports []string }
	check := func(label string, f *Fabric, w want) {
		t.Helper()
		switches, hosts, ports := fabricNames(f)
		for _, c := range []struct {
			what      string
			got, want []string
		}{{"switch", switches, w.switches}, {"host", hosts, w.hosts}, {"port", ports, w.ports}} {
			if len(c.got) != len(c.want) {
				t.Fatalf("%s: %d %s names, want %d", label, len(c.got), c.what, len(c.want))
			}
			for i := range c.got {
				if c.got[i] != c.want[i] {
					t.Fatalf("%s: %s %d is %q, want %q", label, c.what, i, c.got[i], c.want[i])
				}
			}
		}
	}
	for _, c := range []struct {
		name string
		c    ClosParams
	}{{"small", SmallClos}, {"paper", PaperClos}, {"big", BigClos}} {
		for _, shards := range []int{1, 2} {
			engs := make([]*sim.Engine, shards)
			for i := range engs {
				engs[i] = sim.NewEngine(1)
			}
			var w want
			w.switches, w.hosts, w.ports = closNames(c.c)
			check(fmt.Sprintf("%s/shards=%d", c.name, shards), c.c.Build(engs, testParams()), w)
		}
	}

	const n = 9
	var w want
	w.switches = []string{"sw0"}
	for i := 0; i < n; i++ {
		w.hosts = append(w.hosts, fmt.Sprintf("h%d", i))
		w.ports = append(w.ports, fmt.Sprintf("sw0->h%d", i))
	}
	for _, h := range w.hosts {
		w.ports = append(w.ports, h+":nic")
	}
	check("single", SingleSwitch(sim.NewEngine(1), n, testParams()), w)

	const nL, nR = 3, 12
	w = want{switches: []string{"swL", "swR"}}
	var nics []string
	for _, side := range []struct {
		name  string
		n     int
		trunk string
	}{{"l", nL, "core:fwd"}, {"r", nR, "core:rev"}} {
		w.ports = append(w.ports, side.trunk)
		for i := 0; i < side.n; i++ {
			name := fmt.Sprintf("%s%d", side.name, i)
			w.hosts = append(w.hosts, name)
			w.ports = append(w.ports, "sw->"+name)
			nics = append(nics, name+":nic")
		}
	}
	w.ports = append(w.ports, nics...)
	check("dumbbell", Dumbbell(sim.NewEngine(1), nL, nR, 10*units.Gbps, testParams()), w)
}

func TestClosAllPairsConnectivity(t *testing.T) {
	eng := sim.NewEngine(1)
	f := Clos(eng, SmallClos, testParams())
	n := len(f.Net.Hosts)
	// Spot-check a spread of pairs including intra-rack, intra-pod, and
	// cross-pod.
	pairs := [][2]int{{0, 1}, {0, 7}, {0, n - 1}, {n - 1, 0}, {13, 25}, {25, 13}}
	for _, pr := range pairs {
		if got := deliver(t, f, pr[0], pr[1]); got < 0 {
			t.Fatalf("no delivery %d->%d", pr[0], pr[1])
		}
	}
}

func TestClosBaseRTT(t *testing.T) {
	eng := sim.NewEngine(1)
	f := Clos(eng, PaperClos, testParams())
	// Cross-pod one-way: 6 links × 2us prop + 1us host delay + 6×serialization.
	// Host 0 (pod 0) to host 191 (pod 7).
	oneWay := deliver(t, f, 0, 191)
	if oneWay < 0 {
		t.Fatal("no delivery")
	}
	ser := (40 * units.Gbps).TxTime(netem.MTUWire) // per hop store-and-forward
	want := 6*2*sim.Microsecond + 1*sim.Microsecond + 6*ser
	if oneWay != want {
		t.Fatalf("one-way latency %v, want %v", oneWay, want)
	}
	// Base RTT for a minimum-size probe both ways ≈ 28us as §6.2 states
	// (12 propagation traversals + 4 host delays, serialization excluded).
	base := 12*2*sim.Microsecond + 4*1*sim.Microsecond
	if base != 28*sim.Microsecond {
		t.Fatalf("base RTT parameterization drifted: %v", base)
	}
}

func TestClosECMPUsesAllUplinks(t *testing.T) {
	eng := sim.NewEngine(1)
	f := Clos(eng, PaperClos, testParams())
	// Blast flows from pod 0 to pod 1 and check multiple ToR uplinks carry
	// traffic.
	dst := f.Net.Host(30).NodeID() // some host in pod 1 (hosts 24..47)
	src := f.Net.Host(0)
	for fl := uint64(0); fl < 64; fl++ {
		src.Send(&netem.Packet{
			Kind: netem.KindLegacyData, Class: netem.ClassLegacy,
			Dst: dst, Flow: fl, Size: netem.MTUWire,
		})
	}
	eng.Run(5 * sim.Millisecond)
	used := 0
	for _, up := range f.TorUplinks[:2] { // ToR 0's two uplinks
		if up.Stats().TxPackets > 0 {
			used++
		}
	}
	if used != 2 {
		t.Fatalf("ECMP used %d of 2 uplinks of ToR0", used)
	}
}

func TestProfilesBuild(t *testing.T) {
	specs := []PortProfile{
		FlexPassProfile(Spec{}),
		OWFProfile(Spec{WQ: 0.3}),
		NaiveProfile(Spec{}),
		LayeringProfile(Spec{}),
		AltQueueProfile(Spec{}),
		PlainProfile(100 * units.KB),
	}
	for i, prof := range specs {
		cfg := prof(40 * units.Gbps)
		if len(cfg.Queues) == 0 {
			t.Fatalf("profile %d built no queues", i)
		}
	}
	// FlexPass credit limit: wq=0.5 at 40G → 0.5×40G×84/1538 ≈ 1.09Gbps.
	cfg := FlexPassProfile(Spec{})(40 * units.Gbps)
	rl := cfg.Queues[0].RateLimit
	if rl < 1000*units.Mbps || rl > 1200*units.Mbps {
		t.Fatalf("credit rate limit = %v, want ~1.09Gbps", rl)
	}
}

func TestNaiveProfileClassifier(t *testing.T) {
	cfg := NaiveProfile(Spec{})(10 * units.Gbps)
	if cfg.Classify == nil {
		t.Fatal("naive profile needs a classifier")
	}
	if got := cfg.Classify(&netem.Packet{Class: netem.ClassCredit}); got != 0 {
		t.Fatalf("credit class -> queue %d, want 0", got)
	}
	for _, cl := range []netem.Class{netem.ClassFlex, netem.ClassLegacy} {
		if got := cfg.Classify(&netem.Packet{Class: cl}); got != 1 {
			t.Fatalf("class %d -> queue %d, want shared queue 1", cl, got)
		}
	}
	// Full-rate credits: limit ≈ C × 84/1538.
	want := netem.CreditRateFor(10*units.Gbps, 1.0)
	if cfg.Queues[0].RateLimit != want {
		t.Fatalf("naive credit limit %v, want %v", cfg.Queues[0].RateLimit, want)
	}
}

func TestOWFProfileNoSelectiveDropping(t *testing.T) {
	cfg := OWFProfile(Spec{WQ: 0.3})(40 * units.Gbps)
	if cfg.Queues[1].RedDropThreshold != 0 {
		t.Fatal("oWF Q1 must not selectively drop (pure ExpressPass)")
	}
	if cfg.Queues[1].ECNThreshold != 0 {
		t.Fatal("oWF Q1 must not mark (ExpressPass data is not ECT anyway)")
	}
	if cfg.Queues[1].Weight != 0.3 || cfg.Queues[2].Weight != 0.7 {
		t.Fatalf("oWF weights %v/%v, want 0.3/0.7", cfg.Queues[1].Weight, cfg.Queues[2].Weight)
	}
}

func TestAltQueueProfileShape(t *testing.T) {
	cfg := AltQueueProfile(Spec{})(40 * units.Gbps)
	if len(cfg.Queues) != 3 {
		t.Fatalf("%d queues", len(cfg.Queues))
	}
	// Reactive lives in Q2 with legacy: Q1 carries only paced proactive
	// data, so no red threshold there.
	if cfg.Queues[1].RedDropThreshold != 0 {
		t.Fatal("AltQ Q1 should not need selective dropping")
	}
	if cfg.Queues[2].ECNThreshold == 0 {
		t.Fatal("AltQ Q2 needs ECN for DCTCP and the reactive sub-flow")
	}
}

// TestLayouts: each layout builds the fabric its accessors describe —
// host count, one plane for a testbed, the deployment groups the
// harness enables — and names itself for the manifest.
func TestLayouts(t *testing.T) {
	for _, c := range []struct {
		l      Layout
		groups []int
		planes int // at want = 4
		name   string
	}{
		{SmallClos, []int{0, 0, 0, 0, 0, 0, 1}, 4, "clos pods=4 agg/pod=1 tor/pod=2 hosts/tor=6 cores=2 hosts=48"},
		{SingleSwitchLayout{N: 3}, []int{0, 1, 2}, 1, "single-switch hosts=3"},
		{DumbbellLayout{Left: 2, Right: 3}, []int{0, 1, 0, 1, 2}, 1, "dumbbell left=2 right=3"},
	} {
		engs := make([]*sim.Engine, c.l.Planes(4))
		for i := range engs {
			engs[i] = sim.NewEngine(1)
		}
		f := c.l.Build(engs, testParams())
		if len(engs) != c.planes || len(f.Net.Hosts) != c.l.Hosts() || c.l.String() != c.name {
			t.Fatalf("%v: %d planes, %d hosts built of %d", c.l, len(engs), len(f.Net.Hosts), c.l.Hosts())
		}
		for i, g := range c.groups {
			if c.l.Group(i) != g {
				t.Fatalf("%v: host %d in group %d, want %d", c.l, i, c.l.Group(i), g)
			}
		}
	}
	if got := PaperClos.Capacity(40 * units.Gbps); got != 64*40*units.Gbps {
		t.Fatalf("paper Clos load capacity %v, want 64 ToR uplinks", got)
	}
}

func TestClosPodShards(t *testing.T) {
	c := ClosParams{Pods: 4, AggPerPod: 2, TorPerPod: 1, HostsPerTor: 2, Cores: 2}
	for _, tc := range []struct {
		want   int
		shards int
	}{{0, 1}, {1, 1}, {2, 2}, {3, 3}, {4, 4}, {9, 4}} {
		plan := ClosPodShards(c, tc.want)
		if len(plan) != c.Pods {
			t.Fatalf("want=%d: plan length %d", tc.want, len(plan))
		}
		if got := plan[len(plan)-1] + 1; got != tc.shards || c.Planes(tc.want) != tc.shards {
			t.Fatalf("want=%d: %d shards, Planes %d, expected %d (plan %v)", tc.want, got, c.Planes(tc.want), tc.shards, plan)
		}
		for pod := 1; pod < len(plan); pod++ {
			if plan[pod] < plan[pod-1] {
				t.Fatalf("want=%d: plan not monotone: %v", tc.want, plan)
			}
		}
	}
}

func TestClosShardedPartition(t *testing.T) {
	c := ClosParams{Pods: 4, AggPerPod: 2, TorPerPod: 1, HostsPerTor: 2, Cores: 2}
	p := Params{
		LinkRate:  10 * units.Gbps,
		LinkDelay: 2 * sim.Microsecond,
		HostDelay: sim.Microsecond,
		SwitchBuf: 1000 * units.KB,
		BufAlpha:  0.25,
		Profile:   FlexPassProfile(Spec{}),
	}
	engs := []*sim.Engine{sim.NewEngine(1), sim.NewEngine(1)}
	plan := ClosPodShards(c, 2)
	fab := c.Build(engs, p)

	if len(fab.HostShard) != c.Hosts() || len(fab.SwitchShard) != len(fab.Net.Switches) {
		t.Fatalf("partition metadata sizes: hosts %d/%d switches %d/%d",
			len(fab.HostShard), c.Hosts(), len(fab.SwitchShard), len(fab.Net.Switches))
	}
	// Hosts follow their pod's shard; pods 0-1 on shard 0, pods 2-3 on 1.
	for i, s := range fab.HostShard {
		pod := i / (c.TorPerPod * c.HostsPerTor)
		if s != plan[pod] {
			t.Fatalf("host %d (pod %d) on shard %d, want %d", i, pod, s, plan[pod])
		}
	}
	// Every node's ports schedule on its shard's engine.
	for i, sw := range fab.Net.Switches {
		for _, port := range sw.Ports() {
			if port.Engine() != engs[fab.SwitchShard[i]] {
				t.Fatalf("switch %s port %s on wrong engine", sw.Name(), port.Name())
			}
		}
	}
	for i, h := range fab.Net.Hosts {
		if h.NIC().Engine() != engs[fab.HostShard[i]] {
			t.Fatalf("host %d NIC on wrong engine", i)
		}
	}
	// Cross links: only agg<->core wires whose pod shard differs from the
	// cores' shard 0, recorded with the owning side first.
	if len(fab.Cross) == 0 {
		t.Fatal("no cross links recorded")
	}
	for _, cl := range fab.Cross {
		if cl.From == cl.To {
			t.Fatalf("self cross link %+v", cl)
		}
		if cl.From != 0 && cl.To != 0 {
			t.Fatalf("cross link avoids the core shard: %+v", cl)
		}
		if cl.Port.Engine() != engs[cl.From] {
			t.Fatalf("cross port %s not owned by its From shard %d", cl.Port.Name(), cl.From)
		}
	}
	// Expected count: core wiring is striped (each agg reaches
	// Cores/AggPerPod cores), so a pod off the core shard contributes
	// Cores wires each way.
	wantCross := 0
	for _, s := range plan {
		if s != 0 {
			wantCross += 2 * c.Cores
		}
	}
	if len(fab.Cross) != wantCross {
		t.Fatalf("%d cross links, want %d", len(fab.Cross), wantCross)
	}
	// Link numbers — the rank of each port's deliveries — are the same
	// at every shard count: same-instant order must not see the cut.
	ranks := func(n int) map[string]uint32 {
		engs := make([]*sim.Engine, n)
		for i := range engs {
			engs[i] = sim.NewEngine(1)
		}
		m := map[string]uint32{}
		c.Build(engs, p).Net.EachPort(func(port *netem.Port) {
			m[port.Name()] = port.Rank()
		})
		return m
	}
	one := ranks(1)
	seen := map[uint32]bool{}
	for name, r := range one {
		if r < 2 || seen[r] {
			t.Fatalf("port %s has rank %d: not a unique Network link number", name, r)
		}
		seen[r] = true
	}
	for _, n := range []int{2, 4} {
		if got := ranks(n); !maps.Equal(got, one) {
			t.Fatalf("port ranks at %d shards differ from one engine's", n)
		}
	}
}

// TestFabricsRecycleFrames checks that a fabric is pooled by construction,
// with no installer call: the frame host dst consumed, and the frame a
// switch egress dropped, are each the very frame the sender's next
// NewPacket returns (the free list is LIFO and per engine).
func TestFabricsRecycleFrames(t *testing.T) {
	fabrics := map[string]func(*sim.Engine) *Fabric{
		"single-switch": func(e *sim.Engine) *Fabric { return SingleSwitch(e, 4, testParams()) },
		"dumbbell":      func(e *sim.Engine) *Fabric { return Dumbbell(e, 2, 2, 10*units.Gbps, testParams()) },
		"clos":          func(e *sim.Engine) *Fabric { return Clos(e, SmallClos, testParams()) },
	}
	for name, build := range fabrics {
		t.Run(name, func(t *testing.T) {
			eng := sim.NewEngine(1)
			f := build(eng)
			src, dst := f.Net.Host(0), f.Net.Host(len(f.Net.Hosts)-1)
			var seen *netem.Packet
			dst.SetHandler(func(p *netem.Packet) { seen = p })
			send := func() *netem.Packet {
				pkt := src.NewPacket()
				*pkt = netem.Packet{Kind: netem.KindLegacyData, Class: netem.ClassLegacy, Dst: dst.NodeID(), Flow: 1, Size: netem.MTUWire}
				src.Send(pkt)
				eng.Run(eng.Now() + sim.Millisecond)
				return pkt
			}
			sent := send()
			if seen != sent {
				t.Fatal("frame not delivered")
			}
			if got := src.NewPacket(); got != sent {
				t.Fatal("delivered frame was not recycled to the fabric's free list")
			}
			seen = nil
			for _, p := range f.Net.PortsTo(dst.NodeID()) {
				p.SetLossRate(1)
			}
			dropped := send()
			if seen != nil {
				t.Fatal("frame survived a loss rate of 1")
			}
			if got := src.NewPacket(); got != dropped {
				t.Fatal("frame dropped at a switch egress was not recycled")
			}
		})
	}
}

// TestBigClosBuildAllocs bounds the heap objects of building BigClos on two
// shards. Route tables are dense and ECMP sets interned per switch, so the
// build allocates per port and per distinct port set; with a copied set per
// (switch, destination) it made ≈ 148 K objects. Ports, their queue arrays
// and hosts are carved from per-engine slabs, and every port shares one
// PortConfig; when each port was seven objects (its own queue, band and
// band array, plus a fresh profile) the build made 27 164. Each switch's
// route table is sized once for the fabric's nodes (Switch.GrowRoutes) and
// its interned groups are carved from one array; when tables grew by
// destination and each group was a slice of its own, the build made
// 15 320. A port's and a host's events are the node itself, so neither
// costs an object of its own; with three pre-bound callbacks per port and
// one per host the build made 13 364. Every name is cut from one table,
// switches and their buffers are carved from the slabs, and the per-pod
// lists are one array each; with a string or two per node and port and
// lists grown by pod, the build made 6 057. The budget is ~1.3x the
// measurement and holds under -race too.
func TestBigClosBuildAllocs(t *testing.T) {
	const budget = 1_300 // measured 977
	engs := []*sim.Engine{sim.NewEngine(1), sim.NewEngine(1)}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fab := BigClos.Build(engs, testParams())
	runtime.ReadMemStats(&after)
	got := after.Mallocs - before.Mallocs
	t.Logf("%d heap objects", got)
	if got > budget {
		t.Fatalf("BigClos build at two shards made %d heap objects, budget %d", got, budget)
	}
	if len(fab.Net.Hosts) != BigClos.Hosts() {
		t.Fatalf("%d hosts, want %d", len(fab.Net.Hosts), BigClos.Hosts())
	}
	for _, sw := range fab.Net.Switches {
		if ports := sw.Ports(); cap(ports) != len(ports) {
			t.Fatalf("switch %s: %d ports in a list sized for %d", sw.Name(), len(ports), cap(ports))
		}
	}
}

// TestShardedSlabsKeepEnginesApart: a two-shard BigClos build carves each
// engine's ports, hosts, switches and switch buffers from arrays of that
// engine alone, so no cache line holds state that both shard goroutines
// write. From one slab shared by both engines, the agg<->core links, whose
// two ports run on the pod's engine and the core's, would interleave the
// engines within an array and share lines (a Port is not a multiple of 64
// bytes).
func TestShardedSlabsKeepEnginesApart(t *testing.T) {
	engs := []*sim.Engine{sim.NewEngine(1), sim.NewEngine(1)}
	fab := BigClos.Build(engs, testParams())
	type node struct {
		lo, hi uintptr // [lo, hi) in memory
		shard  int
		name   string
	}
	var nodes []node
	add := func(at unsafe.Pointer, size uintptr, eng *sim.Engine, name string) {
		shard := slices.Index(engs, eng)
		nodes = append(nodes, node{uintptr(at), uintptr(at) + size, shard, name})
	}
	fab.Net.EachPort(func(p *netem.Port) { add(unsafe.Pointer(p), unsafe.Sizeof(*p), p.Engine(), p.Name()) })
	for i, h := range fab.Net.Hosts {
		add(unsafe.Pointer(h), unsafe.Sizeof(*h), engs[fab.HostShard[i]], h.Name())
	}
	for i, sw := range fab.Net.Switches {
		add(unsafe.Pointer(sw), unsafe.Sizeof(*sw), engs[fab.SwitchShard[i]], sw.Name())
		add(unsafe.Pointer(sw.Shared()), unsafe.Sizeof(*sw.Shared()), engs[fab.SwitchShard[i]], sw.Name()+" buffer")
	}
	slices.SortFunc(nodes, func(a, b node) int { return cmp.Compare(a.lo, b.lo) })
	const line = 64
	mixed := 0
	for i := 1; i < len(nodes); i++ {
		a, b := nodes[i-1], nodes[i]
		if a.shard != b.shard && (a.hi-1)/line >= b.lo/line {
			if mixed == 0 {
				t.Errorf("%s (shard %d) and %s (shard %d) share a cache line", a.name, a.shard, b.name, b.shard)
			}
			mixed++
		}
	}
	if mixed > 0 {
		t.Fatalf("%d neighbouring nodes of two shards share a cache line", mixed)
	}
}

// built keeps BenchmarkClosBuild's fabrics reachable.
var built *Fabric

// BenchmarkClosBuild measures building a fabric, fresh engines included:
// the §6.2 Clos on one engine and BigClos on two. With -benchmem
// (make bench-hot), allocs/op is the build's heap objects.
func BenchmarkClosBuild(b *testing.B) {
	for _, bc := range []struct {
		name    string
		c       ClosParams
		engines int
	}{{"paper", PaperClos, 1}, {"big/shards=2", BigClos, 2}} {
		b.Run(bc.name, func(b *testing.B) {
			p := testParams()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				engs := make([]*sim.Engine, bc.engines)
				for j := range engs {
					engs[j] = sim.NewEngine(1)
				}
				built = bc.c.Build(engs, p)
			}
		})
	}
}
