package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"flexpass"
	"flexpass/internal/harness"
	"flexpass/internal/netem"
	"flexpass/internal/sim"
	"flexpass/internal/sim/shard"
	"flexpass/internal/topo"
	"flexpass/internal/units"
	"flexpass/internal/workload"
)

// Unit costs: one isolated driver per layer operation, built only from
// the layers' public constructors, with a fixed operation count. They
// say what one event, one hop, one segment costs on this host, so a
// regression in a workload's wall_s can be pinned on a layer without
// opening pprof. Every driver takes the best of unitTries runs:
// interference from the host only ever adds time to deterministic work.

const unitTries = 3

const linkRate = 40 * units.Gbps

// fabricParams are harness.BaseScenario(true)'s link and buffer
// parameters with the FlexPass queue profile.
func fabricParams() topo.Params {
	sc := harness.BaseScenario(true)
	return topo.Params{
		LinkRate:  sc.LinkRate,
		LinkDelay: sc.LinkDelay,
		HostDelay: sc.HostDelay,
		SwitchBuf: sc.SwitchBuf,
		BufAlpha:  sc.BufAlpha,
		Profile:   topo.FlexPassProfile(topo.Spec{WQ: sc.WQ}),
	}
}

// perOp runs fn, which reports how many operations it performed, and
// returns host ns and heap allocations per operation.
func perOp(fn func() int) (ns, allocs float64) {
	ns = math.Inf(1)
	for try := 0; try < unitTries; try++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		ops := fn()
		elapsed := time.Since(start)
		runtime.ReadMemStats(&m1)
		if v := float64(elapsed.Nanoseconds()) / float64(ops); v < ns {
			ns = v
			allocs = float64(m1.Mallocs-m0.Mallocs) / float64(ops)
		}
	}
	return ns, allocs
}

// scaled shrinks an operation count for the smoke test.
func scaled(n int, scale float64) int {
	if n = int(float64(n) * scale); n < 500 {
		n = 500
	}
	return n
}

// churnEngine returns an engine holding `pending` self-rescheduling
// events, warmed so the heap and free list are at steady state.
func churnEngine(pending int) *sim.Engine {
	e := sim.NewEngine(1)
	k := 0
	var tick func()
	tick = func() {
		k++
		e.After(sim.Time(1+k%127)*sim.Microsecond, tick)
	}
	for i := 0; i < pending; i++ {
		e.After(sim.Time(i)*sim.Nanosecond, tick)
	}
	e.Run(e.Now() + sim.Millisecond)
	return e
}

// simDispatch: one After plus one dispatch at a steady heap of `pending`.
func simDispatch(pending, n int) (ns, allocs float64) {
	e := churnEngine(pending)
	return perOp(func() int {
		start := e.Processed
		for e.Processed-start < uint64(n) {
			e.Run(e.Now() + 10*sim.Microsecond)
		}
		return int(e.Processed - start)
	})
}

// simTimerStop: After plus Stop of a far-out timer while 4096 live
// events churn (the per-flow RTO pattern).
func simTimerStop(n int) float64 {
	e := churnEngine(4096)
	ns, _ := perOp(func() int {
		for i := 0; i < n; i++ {
			t := e.After(sim.Second, func() {})
			t.Stop()
			if i%1024 == 0 {
				e.Run(e.Now() + sim.Microsecond)
			}
		}
		return n
	})
	return ns
}

// node is a minimal netem.Node handing every arrival to a callback.
type node struct {
	id     netem.NodeID
	onRecv func(*netem.Packet)
}

func (n *node) NodeID() netem.NodeID      { return n.id }
func (n *node) Receive(pkt *netem.Packet) { n.onRecv(pkt) }

// runUntil advances eng until *count has grown by n and returns the
// actual growth.
func runUntil(eng *sim.Engine, count *int, n int) int {
	start := *count
	for *count-start < n {
		eng.Run(eng.Now() + 100*sim.Microsecond)
	}
	return *count - start
}

// portHop: one frame through one FIFO port — enqueue, serialize,
// propagate, deliver — self-clocked by a sink that re-injects.
func portHop(size, n int) (ns, allocs float64) {
	eng := sim.NewEngine(1)
	p := netem.NewPort(eng, "unit", linkRate, sim.Microsecond,
		netem.PortConfig{Queues: []netem.QueueConfig{{Name: "Q0"}}}, nil)
	delivered := 0
	p.Connect(&node{id: 1, onRecv: func(*netem.Packet) {
		delivered++
		p.Send(&netem.Packet{Dst: 1, Size: size})
	}})
	for i := 0; i < 8; i++ {
		p.Send(&netem.Packet{Dst: 1, Size: size})
	}
	eng.Run(eng.Now() + sim.Millisecond)
	return perOp(func() int { return runUntil(eng, &delivered, n) })
}

// flexPort builds one switch egress with the FlexPass three-queue
// profile (rate-limited credit queue, DWRR over flex and legacy).
func flexPort(eng *sim.Engine) *netem.Port {
	fp := fabricParams()
	return netem.NewPort(eng, "unit", linkRate, sim.Microsecond,
		fp.Profile(linkRate), netem.NewSharedBuffer(fp.SwitchBuf, fp.BufAlpha))
}

// portHopQueued: MTU frames through the FlexPass profile with a
// 64-frame standing backlog split over the two DWRR queues.
func portHopQueued(n int) float64 {
	eng := sim.NewEngine(1)
	p := flexPort(eng)
	frame := func(c netem.Class) *netem.Packet {
		return &netem.Packet{Dst: 1, Class: c, Size: netem.MTUWire, ECNCapable: true}
	}
	delivered := 0
	p.Connect(&node{id: 1, onRecv: func(pkt *netem.Packet) {
		delivered++
		p.Send(frame(pkt.Class))
	}})
	for i := 0; i < 64; i++ {
		p.Send(frame(netem.ClassFlex + netem.Class(i%2)))
	}
	eng.Run(eng.Now() + sim.Millisecond)
	ns, _ := perOp(func() int { return runUntil(eng, &delivered, n) })
	return ns
}

// portDrop: a frame the port refuses — alternately a credit over the
// credit queue's private cap and a red frame over the selective-drop
// threshold. The clock stands still, so the queues stay full.
func portDrop(n int) (float64, error) {
	eng := sim.NewEngine(1)
	p := flexPort(eng)
	p.Connect(&node{id: 1, onRecv: func(*netem.Packet) {}})
	credit := func() *netem.Packet {
		return &netem.Packet{Dst: 1, Kind: netem.KindCredit, Class: netem.ClassCredit, Size: netem.CreditSize}
	}
	red := func() *netem.Packet {
		return &netem.Packet{Dst: 1, Kind: netem.KindReData, Class: netem.ClassFlex, Color: netem.Red, Size: netem.MTUWire}
	}
	for i := 0; i < 128; i++ { // overfill both queues
		p.Send(credit())
		p.Send(red())
	}
	dropped := func() int64 {
		return p.QueueStats(int(netem.ClassCredit)).DroppedOver + p.QueueStats(int(netem.ClassFlex)).DroppedRed
	}
	before := dropped()
	ns, _ := perOp(func() int {
		for i := 0; i < n/2; i++ {
			p.Send(credit())
			p.Send(red())
		}
		return n / 2 * 2
	})
	if got, want := dropped()-before, int64(unitTries*(n/2*2)); got != want {
		return 0, fmt.Errorf("netem.port_drop_ns: %d of %d frames were dropped", got, want)
	}
	return ns, nil
}

// hostHop: Host.Send with its processing delay, NIC serialization,
// propagation, and handler dispatch; two hosts ping-pong MTU frames.
func hostHop(n int) (ns, allocs float64) {
	eng := sim.NewEngine(1)
	mk := func(id netem.NodeID, name string) *netem.Host {
		nic := netem.NewPort(eng, name+"-nic", linkRate, sim.Microsecond,
			netem.PortConfig{Queues: []netem.QueueConfig{{Name: "Q0"}}}, nil)
		return netem.NewHost(eng, id, name, nic, sim.Microsecond)
	}
	a, b := mk(0, "a"), mk(1, "b")
	a.NIC().Connect(b)
	b.NIC().Connect(a)
	received := 0
	a.SetHandler(func(*netem.Packet) { received++; a.Send(&netem.Packet{Dst: 1, Size: netem.MTUWire}) })
	b.SetHandler(func(*netem.Packet) { received++; b.Send(&netem.Packet{Dst: 0, Size: netem.MTUWire}) })
	for i := 0; i < 4; i++ {
		a.Send(&netem.Packet{Dst: 1, Size: netem.MTUWire})
	}
	eng.Run(eng.Now() + sim.Millisecond)
	return perOp(func() int { return runUntil(eng, &received, n) })
}

// switchHop: Switch.Receive, ECMP over two egress ports, egress, sink.
func switchHop(n int) float64 {
	eng := sim.NewEngine(1)
	fp := fabricParams()
	shared := netem.NewSharedBuffer(fp.SwitchBuf, fp.BufAlpha)
	sw := netem.NewSwitch(eng, 100, "unit-sw", shared)
	delivered := 0
	flow := uint64(0)
	inject := func() {
		flow++
		sw.Receive(&netem.Packet{Src: 0, Dst: 1, Flow: flow, Class: netem.ClassFlex, Size: netem.MTUWire})
	}
	sink := &node{id: 1, onRecv: func(*netem.Packet) { delivered++; inject() }}
	for i := 0; i < 2; i++ {
		p := netem.NewPort(eng, fmt.Sprintf("unit-sw-p%d", i), linkRate, sim.Microsecond,
			fp.Profile(linkRate), shared)
		p.Connect(sink)
		sw.AddPort(p)
		sw.AddRoute(1, p)
	}
	for i := 0; i < 8; i++ {
		inject()
	}
	eng.Run(eng.Now() + sim.Millisecond)
	ns, _ := perOp(func() int { return runUntil(eng, &delivered, n) })
	return ns
}

// shardCosts measures the conservative-lookahead protocol on two
// shards: the cost of one empty barrier round, and the added cost of
// one packet handed across an Edge (Deliver, batch flush, merge,
// injection, Receive). Both runs tick the same source events; only the
// loaded one hands packets over, so the difference is the hand-off.
func shardCosts(rounds int) (roundNs, handoffNs float64) {
	const lookahead = 2 * sim.Microsecond
	const perRound = 20
	run := func(tick, deliver bool) (time.Duration, int) {
		engs := []*sim.Engine{sim.NewShardEngine(1, 0), sim.NewShardEngine(1, 1)}
		rt := shard.New(engs, lookahead)
		edge := rt.Connect(0, 1)
		rt.Connect(1, 0)
		got := 0
		sink := &node{id: 1, onRecv: func(*netem.Packet) { got++ }}
		if tick {
			engs[0].Every(lookahead/perRound, func() {
				if deliver {
					edge.Deliver(engs[0].Now()+lookahead+sim.Nanosecond, &netem.Packet{Dst: 1, Size: netem.MTUWire}, sink)
				}
			})
		}
		start := time.Now()
		rt.Run(sim.Time(rounds) * lookahead)
		return time.Since(start), got
	}
	best := func(tick, deliver bool) (time.Duration, int) {
		d, n := run(tick, deliver)
		for try := 1; try < unitTries; try++ {
			if d2, _ := run(tick, deliver); d2 < d {
				d = d2
			}
		}
		return d, n
	}
	empty, _ := best(false, false)
	idle, _ := best(true, false)
	loaded, packets := best(true, true)
	roundNs = float64(empty.Nanoseconds()) / float64(rounds)
	if packets > 0 && loaded > idle {
		handoffNs = float64((loaded - idle).Nanoseconds()) / float64(packets)
	}
	return roundNs, handoffNs
}

// topoBuild: topo.Clos for the given fabric, ms and allocations.
func topoBuild(c topo.ClosParams) (ms, allocs float64) {
	ns, allocs := perOp(func() int {
		topo.Clos(sim.NewEngine(1), c, fabricParams())
		return 1
	})
	return ns / 1e6, allocs
}

// transportCosts drives one transport on a two-host Testbed: one long
// flow (host ns and engine events per delivered segment) and many
// one-segment flows (host ns per flow, start to completion).
func transportCosts(name string, scale float64) (segNs, eventsPerSeg, flowNs float64, err error) {
	size := int64(scaled(10_000_000, scale))
	segs := float64((size + netem.DataPayload - 1) / netem.DataPayload)
	var events uint64
	segNs, _ = perOp(func() int {
		tb := flexpass.NewTestbed(flexpass.TestbedConfig{Hosts: 2, LinkRate: linkRate})
		fl := tb.StartFlow(name, 0, 1, size)
		for !fl.Completed && tb.Eng.Now() < sim.Second {
			tb.Run(tb.Eng.Now() + 100*sim.Microsecond)
		}
		if !fl.Completed {
			err = fmt.Errorf("transport.%s.seg_ns: %d-byte flow did not complete", name, size)
		}
		events = tb.Eng.Processed
		return int(segs)
	})
	flows := scaled(2000, scale)
	flowNs, _ = perOp(func() int {
		tb := flexpass.NewTestbed(flexpass.TestbedConfig{Hosts: 2, LinkRate: linkRate})
		for i := 0; i < flows; i++ {
			tb.StartFlowAt(sim.Time(i)*2*sim.Microsecond, name, 0, 1, 1000)
		}
		done := func() bool {
			for _, fl := range tb.Flows() {
				if !fl.Completed {
					return false
				}
			}
			return true
		}
		for !done() && tb.Eng.Now() < sim.Second {
			tb.Run(tb.Eng.Now() + sim.Millisecond)
		}
		if !done() {
			err = fmt.Errorf("transport.%s.flow_ns: not all %d flows completed", name, flows)
		}
		return flows
	})
	return segNs, float64(events) / segs, flowNs, err
}

// workloadGen: host ns per generated flow for the builtin Poisson plan
// and for the rpc+incast mix plan, on the paper fabric's environment.
func workloadGen(scale float64) (poissonNs, mixNs float64, err error) {
	mix, err := workload.ParsePlan(mustSpec("workload-mix.json"))
	if err != nil {
		return 0, 0, err
	}
	gen := func(plan *workload.Plan) float64 {
		sc := harness.BaseScenario(true)
		sc.Load = 0.8
		sc.WorkloadPlan = plan
		sc.Duration = sim.Time(20 * scale * float64(sim.Millisecond))
		ns, _ := perOp(func() int {
			if n := len(harness.Flows(sc)); n > 0 {
				return n
			}
			return 1
		})
		return ns
	}
	return gen(nil), gen(mix), nil
}

// unitCosts runs every driver under rec and returns the layer metrics.
func unitCosts(rec *recorder, scale float64) (map[string]float64, error) {
	m := map[string]float64{}
	var firstErr error
	fail := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	n := scaled(1_000_000, scale)
	rec.do("sim.dispatch", func() {
		m["sim.dispatch_ns"], m["sim.dispatch_allocs"] = simDispatch(256, n)
	})
	rec.do("sim.dispatch_deep", func() { m["sim.dispatch_deep_ns"], _ = simDispatch(65536, n) })
	rec.do("sim.timer_stop", func() { m["sim.timer_stop_ns"] = simTimerStop(n) })
	rec.do("shard.protocol", func() {
		m["shard.round_ns"], m["shard.handoff_ns"] = shardCosts(scaled(100_000, scale))
	})
	n = scaled(400_000, scale)
	rec.do("netem.port_hop", func() {
		m["netem.port_hop_ns"], m["netem.port_hop_allocs"] = portHop(netem.MTUWire, n)
	})
	rec.do("netem.port_hop_min", func() { m["netem.port_hop_min_ns"], _ = portHop(netem.CreditSize, n) })
	rec.do("netem.port_hop_queued", func() { m["netem.port_hop_queued_ns"] = portHopQueued(n) })
	rec.do("netem.port_drop", func() {
		var err error
		m["netem.port_drop_ns"], err = portDrop(n)
		fail(err)
	})
	rec.do("netem.host_hop", func() { m["netem.host_hop_ns"], m["netem.host_hop_allocs"] = hostHop(n) })
	rec.do("netem.switch_hop", func() { m["netem.switch_hop_ns"] = switchHop(n) })
	rec.do("topo.build", func() {
		m["topo.build_paper_ms"], m["topo.build_paper_allocs"] = topoBuild(topo.PaperClos)
		m["topo.build_big_ms"], _ = topoBuild(topo.BigClos)
	})
	for _, name := range unitTransports {
		name := name
		rec.do("transport."+name, func() {
			seg, events, flow, err := transportCosts(name, scale)
			fail(err)
			m["transport."+name+".seg_ns"] = seg
			m["transport."+name+".events_per_seg"] = events
			m["transport."+name+".flow_ns"] = flow
		})
	}
	rec.do("workload.generate", func() {
		var err error
		m["workload.gen_ns_per_flow"], m["workload.gen_mix_ns_per_flow"], err = workloadGen(scale)
		fail(err)
	})
	return m, firstErr
}

// unitTransports are the transports measured by unit cost: the legacy
// side, the credit baseline, and the paper's design.
var unitTransports = []string{"dctcp", "expresspass", "flexpass"}
