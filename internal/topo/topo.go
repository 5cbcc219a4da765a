// Package topo builds the simulated fabrics the paper evaluates on: a
// single-switch testbed (2-to-1 and 8-to-1 incast), a dumbbell, and the
// 3-tier Clos (§6.2: 8 core, 16 agg, 32 ToR, 192 hosts, 8×40G ports per
// switch, 3:1 ToR oversubscription).
package topo

import (
	"strconv"
	"strings"

	"flexpass/internal/netem"
	"flexpass/internal/sim"
	"flexpass/internal/units"
)

// PortProfile builds the queue configuration for an egress port of the
// given line rate. Schemes provide profiles implementing the paper's queue
// layouts (Q0 credits / Q1 FlexPass / Q2 legacy, oracle WFQ, naïve single
// queue, Homa's 8 priorities). A builder calls it once per distinct rate
// and every port of that rate shares the result: a port copies each
// QueueConfig, and a Classify must keep no state.
type PortProfile func(rate units.Rate) netem.PortConfig

// Params carries fabric-wide constants.
type Params struct {
	LinkRate  units.Rate     // line rate of every link
	LinkDelay sim.Time       // one-way propagation per link
	HostDelay sim.Time       // per-packet host processing delay at send
	SwitchBuf units.ByteSize // shared buffer per switch
	BufAlpha  float64        // dynamic threshold factor
	Profile   PortProfile    // queue layout of every port (switch and NIC), asked once per rate
}

// CrossLink is one egress port whose propagation crosses a shard cut in
// a sharded build: the owning (From) shard serializes, the peer lives on
// the To shard. The harness installs the cross-shard hand-off on these.
type CrossLink struct {
	Port     *netem.Port
	From, To int
}

// Fabric is a built topology.
type Fabric struct {
	Net *netem.Network

	// TorUplinks lists ToR→Agg egress ports; their aggregate capacity
	// defines "network load" in §6.2. Empty for non-Clos fabrics. Their
	// Q1, where a profile has one, is queue netem.ClassFlex.
	TorUplinks []*netem.Port

	// Partition metadata of a Clos build (nil on the one-plane testbed
	// fabrics): HostShard and SwitchShard give each node's engine index in
	// the network's host/switch registration order; Cross lists every
	// egress port whose wire crosses a shard cut.
	HostShard   []int
	SwitchShard []int
	Cross       []CrossLink
}

// names is a fabric's name table: every switch, host and port name is
// written into one buffer, sized once from the fabric's shape, and cut
// from it as a substring, so naming a fabric costs one allocation, not
// one or two per node and port. A size estimate that falls short costs
// a copy of the buffer: names cut before stay valid.
type names struct {
	b    strings.Builder
	from int // where the name being written starts
}

// str and num append a piece of the name being written.
func (t *names) str(s string) *names {
	t.b.WriteString(s)
	return t
}

func (t *names) num(i int) *names {
	var d [20]byte
	t.b.Write(strconv.AppendInt(d[:0], int64(i), 10))
	return t
}

// cut returns the name written since the last cut.
func (t *names) cut() string {
	s := t.b.String()[t.from:]
	t.from = t.b.Len()
	return s
}

// linkNames returns the names of the two directed ports of the link between
// nodes a and b: "a<->b:fwd" and "a<->b:rev".
func (t *names) linkNames(a, b string) (fwd, rev string) {
	return t.str(a).str("<->").str(b).str(":fwd").cut(), t.str(a).str("<->").str(b).str(":rev").cut()
}

// digits is the decimal width of the largest index below n.
func digits(n int) int { return len(strconv.Itoa(max(n-1, 0))) }

// link creates the two directed ports of a full-duplex link between
// switches a and b, fwd (a→b) and rev (b→a), and adds each to its switch
// (the caller adds routes). Each directed port schedules on, and is
// carved from the slab of, its owning switch's engine: engA drives a→b,
// engB drives b→a — identical when the link stays inside one shard.
func link(net *netem.Network, engA, engB *sim.Engine, fwd, rev string, a, b *netem.Switch, rate units.Rate, delay sim.Time, cfg netem.PortConfig) (ab, ba *netem.Port) {
	ab = net.NewPort(engA, fwd, rate, delay, cfg, a.Shared())
	ab.Connect(b)
	ba = net.NewPort(engB, rev, rate, delay, cfg, b.Shared())
	ba.Connect(a)
	a.AddPort(ab)
	b.AddPort(ba)
	return ab, ba
}

// hang adds a host on eng below sw and routes sw to it. nic names the
// host's NIC, "<host>:nic"; the switch's egress toward it is named
// "<down>-><host>".
func hang(net *netem.Network, eng *sim.Engine, t *names, sw *netem.Switch, down, nic string, p Params, cfg netem.PortConfig) netem.NodeID {
	id, name := net.AllocID(), nic[:len(nic)-len(":nic")]
	port := net.NewPort(eng, nic, p.LinkRate, p.LinkDelay, cfg, nil)
	h := net.NewHost(eng, id, name, port, p.HostDelay)
	port.Connect(sw)
	net.AddHost(h)
	egress := net.NewPort(eng, t.str(down).str("->").str(name).cut(), p.LinkRate, p.LinkDelay, cfg, sw.Shared())
	egress.Connect(h)
	sw.AddPort(egress)
	sw.AddRoute(id, egress)
	return id
}

// SingleSwitch builds n hosts hanging off one switch — the testbed shape
// (§6.1: 9 servers and one Tomahawk switch).
func SingleSwitch(eng *sim.Engine, n int, p Params) *Fabric {
	net := netem.NewNetwork(eng)
	cfg := p.Profile(p.LinkRate)
	sw := net.NewSwitch(eng, "sw0", p.SwitchBuf, p.BufAlpha, n, 1+n)
	var t names
	t.b.Grow(n * (10 + 2*digits(n))) // h<i>:nic, sw0->h<i>
	for i := 0; i < n; i++ {
		hang(net, eng, &t, sw, "sw0", t.str("h").num(i).str(":nic").cut(), p, cfg)
	}
	return &Fabric{Net: net}
}

// Dumbbell builds nL senders and nR receivers joined by two switches with a
// single bottleneck link of rate bottleneck (Fig 1: 10Gbps).
func Dumbbell(eng *sim.Engine, nL, nR int, bottleneck units.Rate, p Params) *Fabric {
	net := netem.NewNetwork(eng)
	cfg := p.Profile(p.LinkRate)
	coreCfg := cfg
	if bottleneck != p.LinkRate {
		coreCfg = p.Profile(bottleneck)
	}
	swL := net.NewSwitch(eng, "swL", p.SwitchBuf, p.BufAlpha, 1+nL, 2+nL+nR)
	swR := net.NewSwitch(eng, "swR", p.SwitchBuf, p.BufAlpha, 1+nR, 2+nL+nR)

	lr, rl := link(net, eng, eng, "core:fwd", "core:rev", swL, swR, bottleneck, p.LinkDelay, coreCfg)

	var t names
	t.b.Grow((nL + nR) * (9 + 2*digits(max(nL, nR)))) // l<i>:nic, sw->l<i>
	left, right := make([]netem.NodeID, nL), make([]netem.NodeID, nR)
	for i := range left {
		left[i] = hang(net, eng, &t, swL, "sw", t.str("l").num(i).str(":nic").cut(), p, cfg)
	}
	for i := range right {
		right[i] = hang(net, eng, &t, swR, "sw", t.str("r").num(i).str(":nic").cut(), p, cfg)
	}
	for _, id := range right {
		swL.AddRoute(id, lr)
	}
	for _, id := range left {
		swR.AddRoute(id, rl)
	}
	return &Fabric{Net: net}
}

// ClosParams sizes a 3-tier Clos. Cores must be divisible by AggPerPod;
// each agg in a pod uplinks to Cores/AggPerPod distinct cores.
type ClosParams struct {
	Pods        int
	AggPerPod   int
	TorPerPod   int
	HostsPerTor int
	Cores       int
}

// PaperClos is the §6.2 fabric: 8 core, 16 agg (2/pod × 8 pods), 32 ToR,
// 192 hosts, 3:1 oversubscription at the ToR (6 down / 2 up).
var PaperClos = ClosParams{Pods: 8, AggPerPod: 2, TorPerPod: 4, HostsPerTor: 6, Cores: 8}

// SmallClos is a scaled-down fabric with the same 3:1 ToR oversubscription
// for tests and benchmarks: 2 core, 4 agg, 8 ToR, 48 hosts.
var SmallClos = ClosParams{Pods: 4, AggPerPod: 1, TorPerPod: 2, HostsPerTor: 6, Cores: 2}

// BigClos is the sharded-scaling fabric: 8 core, 32 agg, 96 ToR, 768
// hosts with 4:1 ToR oversubscription (8 down / 2 up) — the ≥768-host
// Clos the parallel-engine benchmarks run web-search at load 0.8 on.
var BigClos = ClosParams{Pods: 16, AggPerPod: 2, TorPerPod: 6, HostsPerTor: 8, Cores: 8}

// Hosts returns the host count of the fabric.
func (c ClosParams) Hosts() int { return c.Pods * c.TorPerPod * c.HostsPerTor }

// ClosPodShards maps each pod to a shard for a sharded Clos build:
// contiguous, balanced pod blocks, at most one shard per pod (the finest
// cut keeps every ToR/agg subtree — and its hosts — on one engine; the
// core switches always ride shard 0). The effective shard count is
// min(want, Pods); want ≤ 1 yields the all-zeros single-shard plan.
func ClosPodShards(c ClosParams, want int) []int {
	if want > c.Pods {
		want = c.Pods
	}
	if want < 1 {
		want = 1
	}
	podShard := make([]int, c.Pods)
	for pod := range podShard {
		podShard[pod] = pod * want / c.Pods
	}
	return podShard
}

// Clos builds the 3-tier fabric with ECMP routing and symmetric hashing
// on one engine.
func Clos(eng *sim.Engine, c ClosParams, p Params) *Fabric {
	return c.Build([]*sim.Engine{eng}, p)
}

// Build builds the Clos partitioned by pod blocks (ClosPodShards) across
// engs: a pod's switches, hosts, and ports schedule on its shard's engine,
// the core switches on engs[0]. Construction order, node IDs, port names,
// and routing do not depend on len(engs) — only the engine each node
// schedules on does — and every wire whose endpoints land on different
// engines is reported in Fabric.Cross for the caller to bridge
// (netem.Port.SetRemote).
func (c ClosParams) Build(engs []*sim.Engine, p Params) *Fabric {
	if c.Cores%c.AggPerPod != 0 {
		panic("topo: Cores must be divisible by AggPerPod")
	}
	upPerAgg := c.Cores / c.AggPerPod
	podShard := ClosPodShards(c, len(engs))
	eng := engs[0] // core tier and the network container
	net := netem.NewNetwork(eng)
	A, T, H := c.AggPerPod, c.TorPerPod, c.HostsPerTor
	nAgg, nTor, nHost := c.Pods*A, c.Pods*T, c.Hosts()
	f := &Fabric{
		Net:         net,
		TorUplinks:  make([]*netem.Port, nTor*A), // [tor][a], a ToR's ECMP uplink set
		HostShard:   make([]int, 0, nHost),
		SwitchShard: make([]int, 0, c.Cores+nAgg+nTor),
	}
	if len(engs) > 1 {
		f.Cross = make([]CrossLink, 0, 2*nAgg*upPerAgg)
	}
	cfg := p.Profile(p.LinkRate) // every port's: the Clos has one line rate
	nodes := c.Cores + nAgg + nTor + nHost

	// The name table, sized for every name at the widest of its indices.
	lc, la := 4+digits(c.Cores), 4+digits(c.Pods)+digits(A)
	lt, lh := 4+digits(c.Pods)+digits(T), 3+digits(c.Pods)+digits(T)+digits(H)
	var nm names
	nm.b.Grow(c.Cores*lc + nAgg*la + nTor*lt + nHost*(lh+4+lt+2+lh) + // h:nic, tor->h
		2*nTor*A*(lt+7+la) + 2*nAgg*upPerAgg*(la+7+lc)) // a<->b:fwd, a<->b:rev

	// newSwitch adds a switch of the given degree, its route table sized
	// for every node.
	newSwitch := func(e *sim.Engine, name string, shard, ports int) *netem.Switch {
		f.SwitchShard = append(f.SwitchShard, shard)
		return net.NewSwitch(e, name, p.SwitchBuf, p.BufAlpha, ports, nodes)
	}

	// Switches and ports live in flat arrays: aggs [pod][a], tors
	// [pod][t], hostIDs [pod][t][h], aggDown [pod][a][t], aggUp
	// [pod][a][u], coreDown [core][pod].
	cores := make([]*netem.Switch, c.Cores)
	for i := range cores {
		cores[i] = newSwitch(eng, nm.str("core").num(i).cut(), 0, c.Pods)
	}
	aggs, tors := make([]*netem.Switch, nAgg), make([]*netem.Switch, nTor)
	hostIDs := make([]netem.NodeID, nHost)
	for pod := 0; pod < c.Pods; pod++ {
		podEng := engs[podShard[pod]]
		for a := 0; a < A; a++ {
			aggs[pod*A+a] = newSwitch(podEng, nm.str("agg").num(pod).str(".").num(a).cut(), podShard[pod], T+upPerAgg)
		}
		for t := 0; t < T; t++ {
			tors[pod*T+t] = newSwitch(podEng, nm.str("tor").num(pod).str(".").num(t).cut(), podShard[pod], H+A)
		}
	}

	// Hosts and host<->ToR links.
	for j := range hostIDs {
		r, sp := j/H, podShard[j/(T*H)]
		nic := nm.str("h").num(r / T).str(".").num(r % T).str(".").num(j % H).str(":nic").cut()
		hostIDs[j] = hang(net, engs[sp], &nm, tors[r], tors[r].Name(), nic, p, cfg)
		f.HostShard = append(f.HostShard, sp)
	}

	// ToR <-> Agg links: every ToR connects to every agg of its pod.
	aggDown := make([]*netem.Port, nAgg*T)
	for r, tor := range tors {
		for a := 0; a < A; a++ {
			g := r/T*A + a
			fwd, rev := nm.linkNames(tor.Name(), aggs[g].Name())
			podEng := engs[podShard[r/T]]
			f.TorUplinks[r*A+a], aggDown[g*T+r%T] = link(net, podEng, podEng, fwd, rev, tor, aggs[g], p.LinkRate, p.LinkDelay, cfg)
		}
	}

	// Agg <-> Core links: agg a uplinks to cores [a*upPerAgg, (a+1)*upPerAgg).
	aggUp := make([]*netem.Port, nAgg*upPerAgg)
	coreDown := make([]*netem.Port, c.Cores*c.Pods)
	for g, agg := range aggs {
		pod, sp := g/A, podShard[g/A]
		for u := 0; u < upPerAgg; u++ {
			i := g%A*upPerAgg + u
			fwd, rev := nm.linkNames(agg.Name(), cores[i].Name())
			up, down := link(net, engs[sp], eng, fwd, rev, agg, cores[i], p.LinkRate, p.LinkDelay, cfg)
			aggUp[g*upPerAgg+u], coreDown[i*c.Pods+pod] = up, down
			if sp != 0 {
				f.Cross = append(f.Cross, CrossLink{Port: up, From: sp, To: 0}, CrossLink{Port: down, From: 0, To: sp})
			}
		}
	}

	// Routing, by host index j (rack j/H): a ToR sends the other racks'
	// hosts up across its aggs (ECMP), an agg its pod's hosts down to
	// their ToR and the rest up across its cores, and a core each pod's
	// hosts down its link to that pod's agg.
	for r, tor := range tors {
		for j, dst := range hostIDs {
			if j/H != r {
				tor.AddRoute(dst, f.TorUplinks[r*A:(r+1)*A]...)
			}
		}
	}
	for g, agg := range aggs {
		for j, dst := range hostIDs {
			if r := j / H; r/T == g/A {
				agg.AddRoute(dst, aggDown[g*T+r%T])
			} else {
				agg.AddRoute(dst, aggUp[g*upPerAgg:(g+1)*upPerAgg]...)
			}
		}
	}
	for i, core := range cores {
		for j, dst := range hostIDs {
			core.AddRoute(dst, coreDown[i*c.Pods+j/(T*H)])
		}
	}
	return f
}
