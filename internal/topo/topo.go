// Package topo builds the simulated fabrics the paper evaluates on: a
// single-switch testbed (2-to-1 and 8-to-1 incast), a dumbbell, and the
// 3-tier Clos (§6.2: 8 core, 16 agg, 32 ToR, 192 hosts, 8×40G ports per
// switch, 3:1 ToR oversubscription).
package topo

import (
	"fmt"

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

// link creates the two directed ports of a full-duplex link between nodes a
// and b and wires routing-free delivery (the caller adds routes). Each
// directed port schedules on, and is carved from the slab of, its owning
// node's engine: engA drives a→b, engB drives b→a — identical when the
// link stays inside one shard.
func link(net *netem.Network, engA, engB *sim.Engine, name string, a, b netem.Node, rate units.Rate, delay sim.Time, cfg netem.PortConfig, sharedA, sharedB *netem.SharedBuffer) (ab, ba *netem.Port) {
	ab = net.NewPort(engA, name+":fwd", rate, delay, cfg, sharedA)
	ab.Connect(b)
	ba = net.NewPort(engB, name+":rev", rate, delay, cfg, sharedB)
	ba.Connect(a)
	return ab, ba
}

// SingleSwitch builds n hosts hanging off one switch — the testbed shape
// (§6.1: 9 servers and one Tomahawk switch).
func SingleSwitch(eng *sim.Engine, n int, p Params) *Fabric {
	net := netem.NewNetwork(eng)
	cfg := p.Profile(p.LinkRate)
	shared := netem.NewSharedBuffer(p.SwitchBuf, p.BufAlpha)
	sw := netem.NewSwitch(eng, net.AllocID(), "sw0", shared)
	sw.GrowPorts(n)
	sw.GrowRoutes(1 + n)
	net.AddSwitch(sw)
	f := &Fabric{Net: net}
	for i := 0; i < n; i++ {
		id := net.AllocID()
		nic := net.NewPort(eng, fmt.Sprintf("h%d:nic", i), p.LinkRate, p.LinkDelay, cfg, nil)
		h := net.NewHost(eng, id, fmt.Sprintf("h%d", i), nic, p.HostDelay)
		nic.Connect(sw)
		net.AddHost(h)
		// Switch egress toward the host.
		down := net.NewPort(eng, fmt.Sprintf("sw0->h%d", i), p.LinkRate, p.LinkDelay, cfg, shared)
		down.Connect(h)
		sw.AddPort(down)
		sw.AddRoute(id, down)
	}
	return f
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
	sharedL := netem.NewSharedBuffer(p.SwitchBuf, p.BufAlpha)
	sharedR := netem.NewSharedBuffer(p.SwitchBuf, p.BufAlpha)
	swL := netem.NewSwitch(eng, net.AllocID(), "swL", sharedL)
	swR := netem.NewSwitch(eng, net.AllocID(), "swR", sharedR)
	swL.GrowPorts(1 + nL)
	swR.GrowPorts(1 + nR)
	swL.GrowRoutes(2 + nL + nR)
	swR.GrowRoutes(2 + nL + nR)
	net.AddSwitch(swL)
	net.AddSwitch(swR)

	lr, rl := link(net, eng, eng, "core", swL, swR, bottleneck, p.LinkDelay, coreCfg, sharedL, sharedR)
	swL.AddPort(lr)
	swR.AddPort(rl)

	f := &Fabric{Net: net}
	addHost := func(sw *netem.Switch, shared *netem.SharedBuffer, name string) netem.NodeID {
		id := net.AllocID()
		nic := net.NewPort(eng, name+":nic", p.LinkRate, p.LinkDelay, cfg, nil)
		h := net.NewHost(eng, id, name, nic, p.HostDelay)
		nic.Connect(sw)
		net.AddHost(h)
		down := net.NewPort(eng, "sw->"+name, p.LinkRate, p.LinkDelay, cfg, shared)
		down.Connect(h)
		sw.AddPort(down)
		sw.AddRoute(id, down)
		return id
	}
	var left, right []netem.NodeID
	for i := 0; i < nL; i++ {
		left = append(left, addHost(swL, sharedL, fmt.Sprintf("l%d", i)))
	}
	for i := 0; i < nR; i++ {
		right = append(right, addHost(swR, sharedR, fmt.Sprintf("r%d", i)))
	}
	for _, id := range right {
		swL.AddRoute(id, lr)
	}
	for _, id := range left {
		swR.AddRoute(id, rl)
	}
	return f
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
	f := &Fabric{Net: net}
	cfg := p.Profile(p.LinkRate) // every port's: the Clos has one line rate
	nodes := c.Cores + c.Pods*(c.AggPerPod+c.TorPerPod) + c.Hosts()

	// newSwitch adds a switch of the given degree, its route table sized
	// for every node.
	newSwitch := func(e *sim.Engine, name string, shard, ports int) *netem.Switch {
		sh := netem.NewSharedBuffer(p.SwitchBuf, p.BufAlpha)
		sw := netem.NewSwitch(e, net.AllocID(), name, sh)
		sw.GrowPorts(ports)
		sw.GrowRoutes(nodes)
		net.AddSwitch(sw)
		f.SwitchShard = append(f.SwitchShard, shard)
		return sw
	}

	cores := make([]*netem.Switch, c.Cores)
	for i := range cores {
		cores[i] = newSwitch(eng, fmt.Sprintf("core%d", i), 0, c.Pods)
	}
	aggs := make([][]*netem.Switch, c.Pods) // [pod][a]
	tors := make([][]*netem.Switch, c.Pods) // [pod][t]
	hostIDs := make([][][]netem.NodeID, c.Pods)
	for pod := 0; pod < c.Pods; pod++ {
		podEng := engs[podShard[pod]]
		aggs[pod] = make([]*netem.Switch, c.AggPerPod)
		for a := range aggs[pod] {
			aggs[pod][a] = newSwitch(podEng, fmt.Sprintf("agg%d.%d", pod, a), podShard[pod], c.TorPerPod+upPerAgg)
		}
		tors[pod] = make([]*netem.Switch, c.TorPerPod)
		hostIDs[pod] = make([][]netem.NodeID, c.TorPerPod)
		for t := range tors[pod] {
			tors[pod][t] = newSwitch(podEng, fmt.Sprintf("tor%d.%d", pod, t), podShard[pod], c.HostsPerTor+c.AggPerPod)
		}
	}

	// Hosts and host<->ToR links.
	for pod := 0; pod < c.Pods; pod++ {
		podEng := engs[podShard[pod]]
		for t := 0; t < c.TorPerPod; t++ {
			tor := tors[pod][t]
			for hidx := 0; hidx < c.HostsPerTor; hidx++ {
				id := net.AllocID()
				name := fmt.Sprintf("h%d.%d.%d", pod, t, hidx)
				nic := net.NewPort(podEng, name+":nic", p.LinkRate, p.LinkDelay, cfg, nil)
				h := net.NewHost(podEng, id, name, nic, p.HostDelay)
				nic.Connect(tor)
				net.AddHost(h)
				f.HostShard = append(f.HostShard, podShard[pod])
				down := net.NewPort(podEng, tor.Name()+"->"+name, p.LinkRate, p.LinkDelay, cfg, tor.Shared())
				down.Connect(h)
				tor.AddPort(down)
				tor.AddRoute(id, down)
				hostIDs[pod][t] = append(hostIDs[pod][t], id)
			}
		}
	}

	// ToR <-> Agg links: every ToR connects to every agg of its pod.
	torUp := make([][][]*netem.Port, c.Pods) // [pod][t][a] ToR→agg
	aggDown := make([][][]*netem.Port, c.Pods)
	for pod := 0; pod < c.Pods; pod++ {
		torUp[pod] = make([][]*netem.Port, c.TorPerPod)
		aggDown[pod] = make([][]*netem.Port, c.AggPerPod)
		for a := 0; a < c.AggPerPod; a++ {
			aggDown[pod][a] = make([]*netem.Port, c.TorPerPod)
		}
		for t := 0; t < c.TorPerPod; t++ {
			tor := tors[pod][t]
			podEng := engs[podShard[pod]]
			torUp[pod][t] = make([]*netem.Port, c.AggPerPod)
			for a := 0; a < c.AggPerPod; a++ {
				agg := aggs[pod][a]
				up, down := link(net, podEng, podEng, fmt.Sprintf("%s<->%s", tor.Name(), agg.Name()),
					tor, agg, p.LinkRate, p.LinkDelay, cfg, tor.Shared(), agg.Shared())
				tor.AddPort(up)
				agg.AddPort(down)
				torUp[pod][t][a] = up
				aggDown[pod][a][t] = down
				f.TorUplinks = append(f.TorUplinks, up)
			}
		}
	}

	// Agg <-> Core links: agg a uplinks to cores [a*upPerAgg, (a+1)*upPerAgg).
	aggUp := make([][][]*netem.Port, c.Pods)   // [pod][a][u]
	coreDown := make([][]*netem.Port, c.Cores) // [core][pod]
	for i := range coreDown {
		coreDown[i] = make([]*netem.Port, c.Pods)
	}
	for pod := 0; pod < c.Pods; pod++ {
		sp := podShard[pod]
		podEng := engs[sp]
		aggUp[pod] = make([][]*netem.Port, c.AggPerPod)
		for a := 0; a < c.AggPerPod; a++ {
			agg := aggs[pod][a]
			for u := 0; u < upPerAgg; u++ {
				coreIdx := a*upPerAgg + u
				core := cores[coreIdx]
				up, down := link(net, podEng, eng, fmt.Sprintf("%s<->%s", agg.Name(), core.Name()),
					agg, core, p.LinkRate, p.LinkDelay, cfg, agg.Shared(), core.Shared())
				agg.AddPort(up)
				core.AddPort(down)
				aggUp[pod][a] = append(aggUp[pod][a], up)
				coreDown[coreIdx][pod] = down
				if sp != 0 {
					f.Cross = append(f.Cross,
						CrossLink{Port: up, From: sp, To: 0},
						CrossLink{Port: down, From: 0, To: sp})
				}
			}
		}
	}

	// Routing.
	for pod := 0; pod < c.Pods; pod++ {
		// ToR routes: other hosts via agg uplinks (ECMP across aggs).
		for t := 0; t < c.TorPerPod; t++ {
			tor := tors[pod][t]
			for p2 := 0; p2 < c.Pods; p2++ {
				for t2 := 0; t2 < c.TorPerPod; t2++ {
					if p2 == pod && t2 == t {
						continue
					}
					for _, dst := range hostIDs[p2][t2] {
						tor.AddRoute(dst, torUp[pod][t]...)
					}
				}
			}
		}
		// Agg routes: intra-pod hosts down to their ToR, inter-pod up to
		// cores (ECMP across this agg's uplinks).
		for a := 0; a < c.AggPerPod; a++ {
			agg := aggs[pod][a]
			for t := 0; t < c.TorPerPod; t++ {
				for _, dst := range hostIDs[pod][t] {
					agg.AddRoute(dst, aggDown[pod][a][t])
				}
			}
			for p2 := 0; p2 < c.Pods; p2++ {
				if p2 == pod {
					continue
				}
				for t2 := 0; t2 < c.TorPerPod; t2++ {
					for _, dst := range hostIDs[p2][t2] {
						agg.AddRoute(dst, aggUp[pod][a]...)
					}
				}
			}
		}
	}
	// Core routes: each pod's hosts via the core's link to that pod's agg.
	for coreIdx := 0; coreIdx < c.Cores; coreIdx++ {
		for pod := 0; pod < c.Pods; pod++ {
			down := coreDown[coreIdx][pod]
			if down == nil {
				continue
			}
			for t := 0; t < c.TorPerPod; t++ {
				for _, dst := range hostIDs[pod][t] {
					cores[coreIdx].AddRoute(dst, down)
				}
			}
		}
	}
	return f
}
