package harness

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"flexpass/internal/faults"
	"flexpass/internal/forensics"
	"flexpass/internal/live"
	"flexpass/internal/metrics"
	"flexpass/internal/netem"
	"flexpass/internal/obs"
	"flexpass/internal/prof"
	"flexpass/internal/sim"
	"flexpass/internal/sim/shard"
	"flexpass/internal/topo"
	"flexpass/internal/trace"
	"flexpass/internal/transport"
)

// plane is everything one engine owns while a run executes: its scheme
// instances, stats registry, trace ring, profiler, and observers (the
// fabric owns the per-engine packet free lists; see netem.PacketPool). A
// run is a slice of planes — one per cut of the layout — and everything a
// plane touches during the run is its own, so the hot path takes no
// locks; the planes are folded after the fabric drains.
type plane struct {
	eng      *sim.Engine
	profiler *prof.Profiler
	reg      *obs.Registry
	ring     *trace.Ring
	strays   *obs.Counter

	// One scheme env — and so one set of scheme instances and counter
	// sets — per plane; the legacy side is always DCTCP.
	env                    *transport.SchemeEnv
	legacy, active         transport.Scheme
	compLegacy, compActive sim.Component

	prober *obs.Prober // the telemetry plane's series
	q1     *obs.Prober // Q1 occupancy of this plane's ToR uplinks (SampleQueues)

	// started counts the run's flows whose sender half has begun (shared
	// by every plane; the live board reads it).
	started *atomic.Int64

	// The arrival cursor: the flow starts this plane owes, in dispatch
	// order, and the one pending event that works through them.
	arrivals []arrival
	next     int
	startFn  func() // pre-bound pl.startNext
}

// arrival is one flow start a plane owes, at the dispatch position an
// eager schedule would have given its event.
type arrival struct {
	slot     sim.Slot
	fl       *transport.Flow
	upgraded bool
}

// arrive reserves, at fl.Start, the start of the halves of fl that live
// on this plane — both for a flow whose hosts share it, one for a flow
// that crosses a cut, whose other half the other plane reserves at the
// same instant on its own engine. Reserve takes the position At would
// have, so the arrival keeps its dispatch key; armArrivals schedules it.
func (pl *plane) arrive(fl *transport.Flow, upgraded bool) {
	pl.arrivals = append(pl.arrivals, arrival{pl.eng.Reserve(fl.Start), fl, upgraded})
}

// armArrivals puts the reserved arrivals in dispatch order — start time,
// then reservation order, which a stable sort on start keeps — and
// schedules the first. Each arrival is still one event, so events and
// their attribution are those of one pending event per flow.
func (pl *plane) armArrivals() {
	slices.SortStableFunc(pl.arrivals, func(a, b arrival) int { return cmp.Compare(a.fl.Start, b.fl.Start) })
	pl.startFn = pl.startNext
	prev := pl.eng.SetComponent(pl.eng.Component("harness/arrival"))
	if len(pl.arrivals) > 0 {
		pl.eng.AtSlot(pl.arrivals[0].slot, pl.startFn)
	}
	pl.eng.SetComponent(prev)
}

// startNext starts the cursor's flow and re-arms at the next arrival. The
// start runs under its scheme's profiling label, so every timer the
// transport schedules — pacer ticks, RTO checks, host sends — inherits
// that component transitively. The receiver half goes first, as in
// transport.Start.
func (pl *plane) startNext() {
	a := pl.arrivals[pl.next]
	pl.next++
	sch, comp := pl.legacy, pl.compLegacy
	if a.upgraded {
		sch, comp = pl.active, pl.compActive
	}
	prev := pl.eng.SetComponent(comp)
	if a.fl.Dst.Eng == pl.eng {
		sch.StartReceiver(a.fl)
	}
	if a.fl.Src.Eng == pl.eng {
		sch.StartSender(a.fl)
		pl.started.Add(1)
	}
	pl.eng.SetComponent(prev)
	if pl.next < len(pl.arrivals) {
		pl.eng.AtSlot(pl.arrivals[pl.next].slot, pl.startFn)
	}
}

// Run executes the scenario and returns collected metrics: build, then
// run and fold.
//
// The layout is cut into N = sc.Clos.Planes(sc.Shards) planes — a Clos by
// pod blocks, a testbed never — each with its own engine; N > 1 runs them
// on one goroutine each, synchronized conservatively on the propagation
// delay across the cut (see internal/sim/shard). One plane is the same
// composition with N = 1. N matters in two places only: the run call (one
// engine has no cut and no lookahead) and forensics (the recorder and
// auditors are single-goroutine state). Arrivals are not one of them:
// every flow starts through its scheme's two endpoint halves, reserved
// by plane.arrive on the plane that owns each host and started by that
// plane's arrival cursor.
//
// Flow results do not depend on N: every port and pacer draws from its own
// stream of (seed, entity), and same-instant order is the model's (see
// internal/sim/shard), so shards = N reproduces shards = 1 exactly
// (TestShardedGolden); Result.Events adds the second arrival of every
// flow that crosses a cut.
func Run(sc Scenario) *Result { return build(sc).run() }

// built is a run between its two halves: fabric, planes, observers and
// every arrival in place, no event dispatched yet.
type built struct {
	sc                      Scenario
	plan                    *runPlan
	planes                  []*plane
	fab                     *topo.Fabric
	rt                      *shard.Runtime // nil on one plane
	res                     *Result
	flows                   transport.Flows   // prebuilt in one slab, by ID (spec order); the agents' demux table
	all                     []*transport.Flow // those starting inside the run window, in (start, ID) order
	rec                     *forensics.Recorder
	aud                     *forensics.Auditor
	flowsStarted, flowsDone atomic.Int64
}

// build is Run's first half.
func build(sc Scenario) *built {
	n := sc.Clos.Planes(sc.Shards)
	if sc.Forensics != nil && n > 1 {
		panic(fmt.Sprintf("harness: forensics needs one engine, this run has %d (set Shards to 0 or 1)", n))
	}
	end := sc.Duration + sc.Drain
	// Forensics and live introspection imply telemetry: timelines need
	// the registry and a lifecycle trace ring, /metrics bridges the
	// registry. The caller's options are copied, never mutated.
	tel := sc.Telemetry
	if tel == nil && (sc.Forensics != nil || sc.Live != nil) {
		tel = &obs.Options{}
	}
	if sc.Forensics != nil && tel.TraceCap == 0 {
		cp := *tel
		cp.TraceCap = 65536
		tel = &cp
	}

	plan := planWorkload(sc)
	b := &built{sc: sc, plan: plan}
	spec := sc.Spec
	spec.WQ = sc.WQ
	planes := make([]*plane, n)
	engs := make([]*sim.Engine, n)
	for i := range planes {
		pl := &plane{started: &b.flowsStarted, eng: sim.NewEngine(sc.Seed)}
		if sc.Profile {
			pl.profiler = prof.New()
			pl.profiler.Attach(pl.eng)
		}
		if tel != nil {
			pl.reg = obs.NewRegistry()
			if tel.TraceCap > 0 {
				pl.ring = trace.NewRing(pl.eng, tel.TraceCap)
			}
		}
		// Every env sees the same oracle weight and options; only the
		// engine, registry, and ring differ.
		pl.env = &transport.SchemeEnv{
			Eng:      pl.eng,
			LinkRate: sc.LinkRate,
			WQ:       sc.WQ,
			OracleWQ: plan.oracleWQ,
			Spec:     spec,
			Registry: pl.reg,
			Trace:    pl.ring,
			Options:  sc.SchemeOptions,
		}
		pl.legacy = mustScheme(transport.SchemeDCTCP, pl.env)
		pl.active = mustScheme(string(sc.Scheme), pl.env)
		pl.strays = pl.reg.Counter("transport/agent", "stray_packets")
		planes[i], engs[i] = pl, pl.eng
	}
	b.planes = planes

	fab := sc.Clos.Build(engs, topo.Params{
		LinkRate:  sc.LinkRate,
		LinkDelay: sc.LinkDelay,
		HostDelay: sc.HostDelay,
		SwitchBuf: sc.SwitchBuf,
		BufAlpha:  sc.BufAlpha,
		Profile:   planes[0].active.Profile(),
	})
	b.fab = fab
	// planeOf maps node i to its plane under the fabric's host or switch
	// partition; a one-plane fabric records none.
	planeOf := func(shard []int, i int) *plane {
		if shard == nil {
			return planes[0]
		}
		return planes[shard[i]]
	}
	if n > 1 {
		b.rt = bridgeShards(engs, fab.Cross)
	}

	// Nodes, their agents, and telemetry live with the plane that owns
	// them. Each registry is sized once for its share of the fabric and,
	// on plane 0, the fault plan's one action counter: it registers after
	// the fabric, and one source past the size would copy the registry.
	if tel != nil {
		room := make(map[*plane]int, n)
		for i, sw := range fab.Net.Switches {
			room[planeOf(fab.SwitchShard, i)] += sw.Sources()
		}
		for i, h := range fab.Net.Hosts {
			room[planeOf(fab.HostShard, i)] += h.Sources()
		}
		if sc.FaultPlan != nil {
			room[planes[0]]++
		}
		for _, pl := range planes {
			pl.reg.Grow(room[pl])
		}
	}
	for i, sw := range fab.Net.Switches {
		sw.Register(planeOf(fab.SwitchShard, i).reg)
	}
	b.flows = make(transport.Flows, len(plan.flows))
	agents := make([]*transport.Agent, plan.hosts)
	for i, h := range fab.Net.Hosts {
		pl := planeOf(fab.HostShard, i)
		agents[i] = transport.NewAgent(pl.eng, h, &b.flows)
		agents[i].ObserveStrays(pl.strays)
		h.Register(pl.reg)
	}
	b.res = &Result{Scenario: sc, OracleWQ: plan.oracleWQ}

	// Apply the fault plan at a fixed point in setup — after the fabric
	// and observers exist, before any flow arrival is scheduled — so each
	// engine's event tie-break order is a pure function of the scenario.
	// Actions schedule on each matched port's own engine (see
	// faults.Apply); the action-count bridge registers on plane 0.
	if sc.FaultPlan != nil {
		applied, err := faults.Apply(sc.FaultPlan, engs[0], fab.Net)
		if err != nil {
			panic(fmt.Sprintf("harness: %v", err))
		}
		applied.Register(planes[0].reg)
		b.res.Faults = applied
	}

	// Flows are prebuilt in one slab with ID = spec index + 1 and their
	// arrivals reserved in spec order, on the plane of each endpoint: once
	// when the two hosts share a plane, once per plane when they do not.
	//
	// The hop recorder (forensic runs only, so one engine) hears of each
	// completion with the flow's score, and gives up the logs of flows
	// that can no longer rank among the exported timelines.
	if sc.Forensics != nil {
		b.rec = forensics.NewRecorder(sc.Forensics)
	}
	onDone := func(fl *transport.Flow) {
		b.flowsDone.Add(1)
		if b.rec != nil {
			b.rec.Done(fl.ID, b.slowdown(fl))
		}
	}
	slab := make([]transport.Flow, len(plan.flows))
	for _, pl := range planes {
		pl.compLegacy = pl.eng.Component("transport/" + transport.SchemeDCTCP)
		pl.compActive = pl.eng.Component("transport/" + string(sc.Scheme))
	}
	for i, fs := range plan.flows {
		fl := &slab[i]
		*fl = transport.Flow{
			ID:         uint64(i + 1),
			Src:        agents[fs.Src],
			Dst:        agents[fs.Dst],
			Size:       fs.Size,
			Start:      fs.At,
			OnComplete: onDone,
		}
		b.flows[i] = fl
		upgraded := plan.upgraded(fs)
		src, dst := planeOf(fab.HostShard, fs.Src), planeOf(fab.HostShard, fs.Dst)
		src.arrive(fl, upgraded)
		if dst != src {
			dst.arrive(fl, upgraded)
		}
	}
	for _, pl := range planes {
		pl.armArrivals()
	}
	// Result.Flows holds the flows whose arrival fires inside the run
	// window, in (start, ID) order — the order a single engine dispatches
	// their arrivals in. A spec past the window never starts and is not a
	// record (recordWorkloadObs still counts it as an incomplete member
	// of its tenant and coflow).
	all := slices.Clone(b.flows)
	sort.SliceStable(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	b.all = all[:sort.Search(len(all), func(i int) bool { return all[i].Start > end })]

	for _, pl := range planes {
		pl.prober = obs.NewProber(pl.eng, pl.reg, tel)
		pl.prober.Start()
	}

	// The forensic plane: hop recording at every port, and the invariant
	// auditors — credit conservation samples the live pacer / sender
	// counters and the fabric's rate-limited credit-queue drops.
	if sc.Forensics != nil {
		fab.Net.SetHopObserver(b.rec)
		credits := func(pick func(transport.Counters) *obs.Counter) func() int64 {
			return func() (n int64) {
				planes[0].env.EachCounters(func(_ string, c transport.Counters) { n += pick(c).Value() })
				return n
			}
		}
		issued := credits(func(c transport.Counters) *obs.Counter { return c.CreditsIssued })
		consumed := credits(func(c transport.Counters) *obs.Counter { return c.CreditsGranted })
		creditDrops := func() (n int64) {
			fab.Net.EachPort(func(p *netem.Port) {
				for q := 0; q < p.NumQueues(); q++ {
					if p.QueueConfig(q).RateLimit > 0 {
						n += p.QueueStats(q).DroppedOver
					}
				}
			})
			return n
		}
		// The auditors see every prebuilt flow; the starvation check
		// skips those that have not started yet.
		b.aud = forensics.WireAudit(engs[0], sc.Forensics, fab.Net,
			func() []*transport.Flow { return b.all }, issued, consumed, creditDrops)
		b.aud.Start()
	}

	// Q1 occupancy of the ToR uplinks, each sampled by the plane whose
	// engine owns it. The prober is private rather than the telemetry
	// plane's: Result.Queue* keeps every sample whether or not telemetry
	// is on and whatever its SeriesCap.
	if sc.SampleQueues {
		for _, pl := range planes {
			reg := obs.NewRegistry()
			for _, up := range fab.TorUplinks {
				if up.Engine() == pl.eng {
					reg.Gauge(up.Name(), "bytes", func() int64 { total, _ := up.QueueBytes(fab.FlexQueueIndex); return total })
					reg.Gauge(up.Name(), "red_bytes", func() int64 { _, red := up.QueueBytes(fab.FlexQueueIndex); return red })
				}
			}
			pl.q1 = sample(pl.eng, reg, 100*sim.Microsecond, end)
		}
	}
	return b
}

// slowdown ranks forensic timelines: the FCT over an ideal of wire bytes
// at line rate plus a fixed propagation allowance. Crude, but monotone in
// the real ideal, which is all slowdown ordering needs.
func (b *built) slowdown(fl *transport.Flow) float64 {
	wire := fl.Size
	if segs := fl.Segs(); segs > 0 {
		wire += int64(segs * (fl.SegWire(0) - fl.SegPayload(0)))
	}
	ideal := b.sc.LinkRate.TxTime(int(wire)) + 4*b.sc.LinkDelay + 2*b.sc.HostDelay
	if fct := fl.FCT(); fct > 0 && ideal > 0 {
		return float64(fct) / float64(ideal)
	}
	return 0
}

// run is Run's second half: supervise and run the engines, then fold the
// planes into the result.
func (b *built) run() *Result {
	sc, planes, res := b.sc, b.planes, b.res
	n, end := len(planes), sc.Duration+sc.Drain
	// Progress cells: the watchdog and the live board read the run from
	// other goroutines through one sim.Watch per engine.
	var watches fleet
	if sc.Live != nil || sc.Deadline > 0 || sc.StallTimeout > 0 {
		for _, pl := range planes {
			w := &sim.Watch{}
			pl.eng.SetWatch(w)
			watches = append(watches, w)
		}
	}

	wallStart := time.Now()
	var publishFinal func()
	if sc.Live != nil {
		// Every plane reports on its own engine clock, like any observer:
		// it refreshes its slot with its registry's readings — plain ints
		// only its goroutine may read while the run executes. Plane 0's
		// tick also posts the fleet's progress with all slots merged, so
		// the merge runs once per interval, not once per plane.
		var mu sync.Mutex
		slots := make([][]obs.CounterData, n)
		report := func(i int, post, done bool) {
			final := planes[i].reg.Final()
			mu.Lock()
			defer mu.Unlock()
			slots[i] = final
			if !post {
				return
			}
			st := live.RunStatus{
				SimNowPs:     watches.horizonPs(),
				SimEndPs:     int64(end),
				Events:       watches.events(),
				FlowsTotal:   len(b.plan.flows),
				FlowsStarted: int(b.flowsStarted.Load()),
				FlowsDone:    int(b.flowsDone.Load()),
				WallMS:       float64(time.Since(wallStart)) / float64(time.Millisecond),
				Done:         done,
			}
			if secs := time.Since(wallStart).Seconds(); secs > 0 {
				st.EventsPerSec = float64(st.Events) / secs
			}
			sc.Live.Publish(st, mergeReadings(slots))
		}
		for i, pl := range planes {
			prev := pl.eng.SetComponent(pl.eng.Component("live/status"))
			pl.eng.Every(liveEvery, func() { report(i, i == 0, false) })
			pl.eng.SetComponent(prev)
		}
		publishFinal = func() {
			for i := range planes {
				report(i, i == n-1, true) // post once every slot is final
			}
		}
	}
	// An aborted engine still advances its clock through each round
	// window, so the shard protocol drains normally after a kill.
	wd := startWatchdog(sc.Deadline, sc.StallTimeout, watches.horizonPs, watches.events, watches.abort)
	if b.rt == nil {
		planes[0].eng.Run(end)
	} else {
		b.rt.Run(end)
	}
	res.WallClock = time.Since(wallStart)
	if ke := wd.stop(); ke != nil {
		panic(ke)
	}
	if publishFinal != nil {
		publishFinal()
	}

	res.Flows.Records = make([]metrics.FlowRecord, len(b.all))
	for i, fl := range b.all {
		res.Flows.Records[i] = snapshot(fl, b.plan.flows[fl.ID-1].Incast)
	}
	if sc.SampleQueues {
		var totals, reds []int64
		for _, pl := range planes {
			for _, s := range pl.q1.Series() {
				if s.Metric == "bytes" {
					totals = s.Values.AppendTo(totals)
				} else {
					reds = s.Values.AppendTo(reds)
				}
			}
		}
		res.QueueAvg, res.QueueP90 = metrics.Stats(totals, 0.9)
		res.QueueRedAvg, res.QueueRedP90 = metrics.Stats(reds, 0.9)
	}
	countFabricDrops(b.fab, res)
	rings := make([]*trace.Ring, n)
	profiles := make([][]obs.ComponentProfile, n)
	for i, pl := range planes {
		res.Events += pl.eng.Processed
		rings[i] = pl.ring
		profiles[i] = pl.profiler.Export()
	}
	if rings[0] != nil {
		res.Trace = trace.Merge(rings...)
	}
	res.Profile = prof.MergeExports(profiles...)

	if sc.Forensics != nil {
		res.Forensics = &forensics.Report{
			Violations:        b.aud.Violations(),
			ViolationsDropped: b.aud.Dropped(),
			Timelines:         forensics.WorstTimelines(b.rec, res.Trace, b.all, b.slowdown, sc.Forensics),
		}
	}

	if planes[0].reg != nil { // telemetry on
		// Workload accounting is global, not per-plane: fold it into
		// plane 0's registry before the merge.
		recordWorkloadObs(planes[0].reg, b.plan.flows, b.all)
		runs := make([]*obs.Run, n)
		for i, pl := range planes {
			runs[i] = obs.Collect(pl.reg, pl.prober, obs.Manifest{})
		}
		m := buildManifest(sc, planes[0].prober.Interval(), res, n)
		res.Telemetry = obs.MergeRuns(m, runs...)
		res.Telemetry.Flows = res.Flows.Records
		res.Telemetry.AttachTrace(res.Trace)
		if res.Forensics != nil {
			res.Telemetry.Forensics = res.Forensics.Export()
		}
		res.Telemetry.Faults = res.Faults.Export()
	}
	return res
}

// liveEvery is the sim-time period of a run's live status reports.
const liveEvery = sim.Millisecond

// snapshot is fl's row in the run's flow table.
func snapshot(fl *transport.Flow, incast bool) metrics.FlowRecord {
	return metrics.FlowRecord{
		ID:          fl.ID,
		Size:        fl.Size,
		Start:       fl.Start,
		FCT:         fl.FCT(),
		Completed:   fl.Completed,
		Legacy:      fl.Legacy,
		Incast:      incast,
		Transport:   fl.Transport,
		Timeouts:    fl.Timeouts,
		Retransmits: fl.Retransmits,
		ProRetx:     fl.ProRetx,
		Redundant:   fl.RedundantSegs,
		MaxReorderB: fl.MaxReorderB,
		RxBytes:     fl.RxBytes,
	}
}

// sample starts a private prober over reg — a measurement's own sources
// and cadence, apart from the run's telemetry options — capped to hold
// every tick of a run of length window, so no sample is displaced.
func sample(eng *sim.Engine, reg *obs.Registry, every, window sim.Time) *obs.Prober {
	p := obs.NewProber(eng, reg, &obs.Options{ProbeInterval: every, SeriesCap: int(window/every) + 1})
	p.Start()
	return p
}

// bridgeShards builds the parallel runtime over the planes' engines and
// installs the cross-shard hand-off on every wire that crosses a cut.
// The conservative lookahead is the minimum propagation delay across
// the cut: a packet serialized on one shard cannot arrive on another
// sooner than that, so each shard may run that far past its neighbors'
// horizons.
func bridgeShards(engs []*sim.Engine, cross []topo.CrossLink) *shard.Runtime {
	lookahead := sim.Time(0)
	for _, cl := range cross {
		if lookahead == 0 || cl.Port.Prop() < lookahead {
			lookahead = cl.Port.Prop()
		}
	}
	rt := shard.New(engs, lookahead)
	for _, cl := range cross {
		edge := rt.Connect(cl.From, cl.To)
		dst := cl.Port.Peer()
		cl.Port.SetRemote(func(at sim.Time, pkt *netem.Packet) {
			edge.DeliverRanked(at, cl.Port.Rank(), pkt, dst)
		})
	}
	return rt
}

// mergeReadings folds per-plane registry finals into one reading set,
// summing values that share (entity, metric, kind); one plane's finals
// are returned as they are. Finals are sorted, so the merged order is
// deterministic.
func mergeReadings(slots [][]obs.CounterData) []obs.CounterData {
	if len(slots) == 1 {
		return slots[0]
	}
	type key struct{ entity, metric, kind string }
	idx := map[key]int{}
	var out []obs.CounterData
	for _, finals := range slots {
		for _, r := range finals {
			k := key{r.Entity, r.Metric, r.Kind}
			if j, ok := idx[k]; ok {
				out[j].Value += r.Value
				continue
			}
			idx[k] = len(out)
			out = append(out, r)
		}
	}
	return out
}

// countFabricDrops folds every port's drop and fault-loss counters into
// the result. Runs after the engine(s) stop, from one goroutine.
func countFabricDrops(fab *topo.Fabric, res *Result) {
	fab.Net.EachPort(func(p *netem.Port) {
		fs := p.FaultStats()
		res.FaultDrops.Injected += fs.Injected
		res.FaultDrops.LinkDown += fs.LinkDown
		res.FaultDrops.BurstLoss += fs.BurstLoss
		res.FaultDrops.CreditLoss += fs.CreditLoss
		for q := 0; q < p.NumQueues(); q++ {
			st := p.QueueStats(q)
			res.DropsRed += st.DroppedRed
			if p.QueueConfig(q).RateLimit > 0 {
				res.DropsCredit += st.DroppedOver
			} else {
				res.DropsOther += st.DroppedOver
			}
		}
	})
}
