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
	"flexpass/internal/transport/schemes"
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

	// One scheme env, so one set of counter sets, per plane.
	env     *transport.SchemeEnv
	schemes map[string]*instance // by name, built on first use

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

// instance is a scheme built on a plane, with the profiling component
// its flow starts run under.
type instance struct {
	*schemes.Scheme
	comp sim.Component
}

// scheme returns the plane's instance of the named scheme, built on first
// use; an unknown name panics. "naive" and "expresspass" are two
// instances of one transport, each with its own per-run state.
func (pl *plane) scheme(name string) *instance {
	in := pl.schemes[name]
	if in == nil {
		sch, err := schemes.New(name, pl.env)
		if err != nil {
			panic(fmt.Sprintf("harness: %v", err))
		}
		in = &instance{sch, pl.eng.Component("transport/" + name)}
		pl.schemes[name] = in
	}
	return in
}

// arrival is one flow start a plane owes, at the dispatch position an
// eager schedule would have given its event.
type arrival struct {
	slot sim.Slot
	fl   *transport.Flow
	in   *instance
}

// arrive reserves, at fl.Start, the start of the halves of fl that live
// on this plane — both for a flow whose hosts share it, one for a flow
// that crosses a cut, whose other half the other plane reserves at the
// same instant on its own engine. Reserve takes the position At would
// have, so the arrival keeps its dispatch key; armArrivals schedules it.
// Open makes the list at its final length first.
func (pl *plane) arrive(fl *transport.Flow, scheme string) {
	pl.arrivals = append(pl.arrivals, arrival{pl.eng.Reserve(fl.Start), fl, pl.scheme(scheme)})
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

// startNext starts the cursor's flow and re-arms at the next arrival.
func (pl *plane) startNext() {
	a := pl.arrivals[pl.next]
	pl.next++
	pl.start(a.in, a.fl)
	if pl.next < len(pl.arrivals) {
		pl.eng.AtSlot(pl.arrivals[pl.next].slot, pl.startFn)
	}
}

// start begins the halves of fl that live on this plane, the receiver's
// first, so its endpoint exists before a frame addressed to it can. Every
// timer the start schedules — pacer ticks, RTO checks, host sends —
// inherits the scheme's profiling label transitively.
func (pl *plane) start(in *instance, fl *transport.Flow) {
	prev := pl.eng.SetComponent(in.comp)
	if fl.Dst.Eng == pl.eng {
		in.StartReceiver(pl.eng, fl)
	}
	if fl.Src.Eng == pl.eng {
		in.StartSender(pl.eng, fl)
		pl.started.Add(1)
	}
	pl.eng.SetComponent(prev)
}

// Run executes the scenario and returns collected metrics: Open, Run to
// the end of the drain, Close.
//
// The layout is cut into N = sc.Clos.Planes(sc.Shards) planes — a Clos by
// pod blocks, a testbed never — each with its own engine; N > 1 runs them
// on one goroutine each, synchronized conservatively on the propagation
// delay across the cut (see internal/sim/shard). One plane is the same
// composition with N = 1. N matters only to the run call (one engine has
// no cut and no lookahead), to forensics (single-goroutine state) and to
// a session's StartFlow and second Run (the shard protocol runs once).
// Every flow starts through its scheme's two endpoint halves, reserved by
// plane.arrive on the plane that owns each host.
//
// Flow results do not depend on N: every port and pacer draws from its own
// stream of (seed, entity), and same-instant order is the model's (see
// internal/sim/shard), so shards = N reproduces shards = 1 exactly
// (TestShardedGolden); Result.Events adds the second arrival of every
// flow that crosses a cut.
func Run(sc Scenario) *Result {
	s := Open(sc)
	s.Run(sc.Duration + sc.Drain)
	return s.Close()
}

// Session is a run between Open and Close. A one-plane session also takes
// flows after Open and runs in steps; the Testbed façade is one.
type Session struct {
	sc     Scenario
	plan   *runPlan
	planes []*plane
	fab    *topo.Fabric
	rt     *shard.Runtime // nil on one plane
	res    *Result
	agents []transport.Agent // by host index
	onDone func(*transport.Flow)
	flows  transport.Flows   // by ID: the scenario's, in one slab, then StartFlow's; the agents' demux table
	all    []*transport.Flow // the flows to record, in (start, ID) order once Close sorts and cuts it
	rec    *forensics.Recorder
	aud    *forensics.Auditor

	ran                     bool      // a second Run needs one plane
	watches                 fleet     // progress cells for the live board and a kill's snapshot
	kill                    *sim.Kill // the scenario's limits, shared by the watches; nil without limits
	publishFinal            func()
	flowsStarted, flowsDone atomic.Int64
}

// Open builds the scenario's run: fabric, planes, observers and every
// arrival of the scenario's flows in place, no event dispatched yet.
func Open(sc Scenario) *Session {
	if err := schemes.CheckOptions(sc.SchemeOptions); err != nil {
		panic(fmt.Sprintf("harness: %v", err))
	}
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
	s := &Session{sc: sc, plan: plan}
	spec := sc.Spec
	spec.WQ = sc.WQ
	planes := make([]*plane, n)
	engs := make([]*sim.Engine, n)
	for i := range planes {
		pl := &plane{started: &s.flowsStarted, eng: sim.NewEngine(sc.Seed)}
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
		// registry and ring differ.
		pl.env = &transport.SchemeEnv{
			LinkRate: sc.LinkRate,
			WQ:       sc.WQ,
			OracleWQ: plan.oracleWQ,
			Spec:     spec,
			Registry: pl.reg,
			Trace:    pl.ring,
			Options:  sc.SchemeOptions,
		}
		// DCTCP is the legacy side; the scenario's scheme lays out the queues.
		pl.schemes = make(map[string]*instance, 2)
		pl.scheme(transport.SchemeDCTCP)
		pl.scheme(string(sc.Scheme))
		pl.strays = pl.reg.Counter("transport/agent", "stray_packets")
		planes[i], engs[i] = pl, pl.eng
	}
	s.planes = planes

	fab := sc.Clos.Build(engs, topo.Params{
		LinkRate:  sc.LinkRate,
		LinkDelay: sc.LinkDelay,
		HostDelay: sc.HostDelay,
		SwitchBuf: sc.SwitchBuf,
		BufAlpha:  sc.BufAlpha,
		Profile:   planes[0].scheme(string(sc.Scheme)).Profile,
	})
	s.fab = fab
	// index and planeOf map node i to its plane under the host or switch
	// partition; a one-plane fabric records none.
	index := func(shard []int, i int) int {
		if shard == nil {
			return 0
		}
		return shard[i]
	}
	planeOf := func(shard []int, i int) *plane { return planes[index(shard, i)] }
	if n > 1 {
		s.rt = bridgeShards(engs, fab.Cross)
	}

	// Nodes, their agents, and telemetry live with the plane that owns
	// them. Each registry is sized once for its share of the fabric and
	// the fault plan's action counter: it registers after the fabric, and
	// one source past the size would copy the registry.
	if tel != nil {
		room := make(map[*plane]int, n)
		for i, sw := range fab.Net.Switches {
			room[planeOf(fab.SwitchShard, i)] += sw.Sources()
		}
		for i, h := range fab.Net.Hosts {
			room[planeOf(fab.HostShard, i)] += h.Sources()
		}
		for _, pl := range planes {
			if sc.FaultPlan != nil {
				room[pl]++
			}
			pl.reg.Grow(room[pl])
		}
	}
	for i, sw := range fab.Net.Switches {
		sw.Register(planeOf(fab.SwitchShard, i).reg)
	}
	s.flows = make(transport.Flows, len(plan.flows))
	s.agents = make([]transport.Agent, plan.hosts)
	for i, h := range fab.Net.Hosts {
		pl := planeOf(fab.HostShard, i)
		s.agents[i].Install(pl.eng, h, &s.flows)
		s.agents[i].ObserveStrays(pl.strays)
		h.Register(pl.reg)
	}
	s.res = &Result{Scenario: sc, OracleWQ: plan.oracleWQ}

	// Apply the fault plan at a fixed point in setup — after the fabric
	// and observers exist, before any flow arrival is scheduled — so each
	// engine's event tie-break order is a pure function of the scenario.
	// Actions schedule and log on each matched port's own engine (see
	// faults.Apply), and each plane counts its own.
	if sc.FaultPlan != nil {
		applied, err := faults.Apply(sc.FaultPlan, engs[0], fab.Net)
		if err != nil {
			panic(fmt.Sprintf("harness: %v", err))
		}
		for _, pl := range planes {
			applied.Register(pl.reg, pl.eng)
		}
		s.res.Faults = applied
	}

	// Flows are prebuilt in one slab with ID = spec index + 1 and their
	// arrivals reserved in spec order, on the plane of each endpoint: once
	// when the two hosts share a plane, once per plane when they do not.
	//
	// The hop recorder (forensic runs only, so one engine) hears of each
	// completion with the flow's score, and gives up the logs of flows
	// that can no longer rank among the exported timelines.
	if sc.Forensics != nil {
		s.rec = forensics.NewRecorder(sc.Forensics)
	}
	s.onDone = func(fl *transport.Flow) {
		s.flowsDone.Add(1)
		if s.rec != nil {
			s.rec.Done(fl.ID, s.slowdown(fl))
		}
	}
	owed := make([]int, n) // each plane's arrivals, so its list is made once
	for _, fs := range plan.flows {
		src, dst := index(fab.HostShard, fs.Src), index(fab.HostShard, fs.Dst)
		owed[src]++
		if dst != src {
			owed[dst]++
		}
	}
	for i, pl := range planes {
		pl.arrivals = make([]arrival, 0, owed[i])
	}
	slab := make([]transport.Flow, len(plan.flows))
	for i, fs := range plan.flows {
		fl := &slab[i]
		*fl = transport.Flow{
			ID:         uint64(i + 1),
			Src:        &s.agents[fs.Src],
			Dst:        &s.agents[fs.Dst],
			Size:       fs.Size,
			Start:      fs.At,
			OnComplete: s.onDone,
		}
		s.flows[i] = fl
		scheme := transport.SchemeDCTCP
		if plan.upgraded(fs) {
			scheme = string(sc.Scheme)
		}
		src, dst := planeOf(fab.HostShard, fs.Src), planeOf(fab.HostShard, fs.Dst)
		src.arrive(fl, scheme)
		if dst != src {
			dst.arrive(fl, scheme)
		}
	}
	for _, pl := range planes {
		pl.armArrivals()
	}
	s.all = slices.Clone(s.flows)
	slices.SortStableFunc(s.all, byStart)

	for _, pl := range planes {
		pl.prober = obs.NewProber(pl.eng, pl.reg, tel)
		pl.prober.Start()
	}

	// The forensic plane: hop recording at every port, and the invariant
	// auditors — credit conservation samples the live pacer / sender
	// counters and the fabric's rate-limited credit-queue drops.
	if sc.Forensics != nil {
		fab.Net.SetHopObserver(s.rec)
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
		// The auditors see every flow, in start order; the starvation
		// check skips those that have not started yet.
		s.aud = forensics.WireAudit(engs[0], sc.Forensics, fab.Net,
			func() []*transport.Flow { return s.all }, issued, consumed, creditDrops)
		s.aud.Start()
	}

	// Q1 occupancy of the ToR uplinks, each sampled by the plane whose
	// engine owns it. The prober is private rather than the telemetry
	// plane's: Result.Queue* keeps every sample whether or not telemetry
	// is on and whatever its SeriesCap. A one-queue profile (all legacy)
	// has no Q1, so its uplinks give no samples and the run no q1_*; a
	// plane with no Q1 to sample starts no prober.
	if sc.SampleQueues {
		const q1 = int(netem.ClassFlex)
		for _, pl := range planes {
			var reg *obs.Registry
			for _, up := range fab.TorUplinks {
				if up.Engine() != pl.eng || up.NumQueues() <= q1 {
					continue
				}
				if reg == nil {
					reg = obs.NewRegistry()
				}
				reg.Gauge(up.Name(), "bytes", func() int64 { total, _ := up.QueueBytes(q1); return total })
				reg.Gauge(up.Name(), "red_bytes", func() int64 { _, red := up.QueueBytes(q1); return red })
			}
			pl.q1 = sample(pl.eng, reg, 100*sim.Microsecond, end)
		}
	}

	// Progress cells: the live board reads the run from other goroutines
	// through one sim.Watch per engine, and the engines enforce the
	// scenario's limits at their watch poll, through one shared record.
	if sc.Deadline > 0 || sc.StallTimeout > 0 {
		s.kill = sim.NewKill(sc.Deadline, sc.StallTimeout)
	}
	if sc.Live != nil || s.kill != nil {
		for _, pl := range planes {
			w := sim.NewWatch(s.kill)
			pl.eng.SetWatch(w)
			s.watches = append(s.watches, w)
		}
	}
	if sc.Live == nil {
		return s
	}
	wallStart := time.Now()
	// Every plane reports on its own engine clock, like any observer: it
	// refreshes its slot with its registry's readings — plain ints only
	// its goroutine may read while the run executes. Plane 0's tick also
	// posts the fleet's progress with all slots merged, so the merge runs
	// once per interval, not once per plane.
	var mu sync.Mutex
	slots := make([]*obs.Run, n)
	report := func(i int, post, done bool) {
		final := &obs.Run{Counters: planes[i].reg.Final()}
		mu.Lock()
		defer mu.Unlock()
		slots[i] = final
		if !post {
			return
		}
		st := live.RunStatus{
			SimNowPs:     s.watches.horizonPs(),
			SimEndPs:     int64(end),
			Events:       s.watches.events(),
			FlowsTotal:   len(s.plan.flows),
			FlowsStarted: int(s.flowsStarted.Load()),
			FlowsDone:    int(s.flowsDone.Load()),
			WallMS:       float64(time.Since(wallStart)) / float64(time.Millisecond),
			Done:         done,
		}
		if secs := time.Since(wallStart).Seconds(); secs > 0 {
			st.EventsPerSec = float64(st.Events) / secs
		}
		sc.Live.Publish(st, obs.MergeRuns(obs.Manifest{}, slots...).Counters)
	}
	for i, pl := range planes {
		prev := pl.eng.SetComponent(pl.eng.Component("live/status"))
		pl.eng.Every(liveEvery, func() { report(i, i == 0, false) })
		pl.eng.SetComponent(prev)
	}
	s.publishFinal = func() {
		for i := range planes {
			report(i, i == n-1, true) // post once every slot is final
		}
	}
	return s
}

// Engine is a one-plane session's engine.
func (s *Session) Engine() *sim.Engine { return s.onePlane("Engine").eng }

// Fabric is the session's fabric.
func (s *Session) Fabric() *topo.Fabric { return s.fab }

// Flows is the session's flow table by ID.
func (s *Session) Flows() transport.Flows { return s.flows }

// onePlane returns the session's one plane, or panics: the shard protocol
// runs once (shard.Runtime.Run), so a late flow has no round to join.
func (s *Session) onePlane(op string) *plane {
	if n := len(s.planes); n > 1 {
		panic(fmt.Sprintf("harness: %s needs one engine, this session has %d (set Shards to 0 or 1)", op, n))
	}
	return s.planes[0]
}

// StartFlow adds a flow of size bytes from host src to host dst on the
// named scheme, starting at at, to a one-plane session. It takes the next
// ID in the flow table and its start is one event at at, as a scenario
// flow's arrival is. An unknown scheme name panics here, at the call.
func (s *Session) StartFlow(at sim.Time, scheme string, src, dst int, size int64) *transport.Flow {
	pl := s.onePlane("StartFlow")
	in := pl.scheme(scheme)
	fl := s.flows.Add(&transport.Flow{
		ID:         uint64(len(s.flows) + 1),
		Src:        &s.agents[src],
		Dst:        &s.agents[dst],
		Size:       size,
		Start:      at,
		OnComplete: s.onDone,
	})
	s.all = append(s.all, fl)
	pl.eng.At(at, func() { pl.start(in, fl) })
	return fl
}

// slowdown ranks forensic timelines: the FCT over an ideal of wire bytes
// at line rate plus a fixed propagation allowance. Crude, but monotone in
// the real ideal, which is all slowdown ordering needs.
func (s *Session) slowdown(fl *transport.Flow) float64 {
	wire := fl.Size
	if segs := fl.Segs(); segs > 0 {
		wire += int64(segs * (fl.SegWire(0) - fl.SegPayload(0)))
	}
	ideal := s.sc.LinkRate.TxTime(int(wire)) + 4*s.sc.LinkDelay + 2*s.sc.HostDelay
	if fct := fl.FCT(); fct > 0 && ideal > 0 {
		return float64(fct) / float64(ideal)
	}
	return 0
}

// Run runs the session's engines until every event at or before until
// has fired, under the scenario's limits, which count from this call. A
// tripped limit stops every engine and Run panics with a *KilledError;
// the kill is sticky, so a later Run dispatches nothing and panics
// again. A one-plane session may Run again, in steps; a sharded one runs
// once.
func (s *Session) Run(until sim.Time) {
	if s.ran {
		s.onePlane("a second Run")
	}
	s.ran = true
	start := time.Now()
	s.kill.Arm()
	if s.rt == nil {
		s.planes[0].eng.Run(until)
	} else {
		s.rt.Run(until) // leaves every engine at until
	}
	s.res.WallClock += time.Since(start)
	if trip := s.kill.Tripped(); trip != nil {
		panic(&KilledError{Reason: trip.Reason, Elapsed: trip.Elapsed,
			HorizonPs: s.watches.horizonPs(), Events: s.watches.events()})
	}
}

// Close folds the planes into the session's result, once, after the last
// Run.
func (s *Session) Close() *Result {
	sc, planes, res := s.sc, s.planes, s.res
	n := len(planes)
	if s.publishFinal != nil {
		s.publishFinal()
	}

	// Result.Flows holds the flows whose start the run reached, in the
	// (start, ID) order one engine starts them in. A spec past the window
	// is no record, but recordWorkloadObs counts it as an incomplete
	// member of its tenant and coflow.
	now := planes[0].eng.Now()
	slices.SortStableFunc(s.all, byStart)
	s.all = s.all[:sort.Search(len(s.all), func(i int) bool { return s.all[i].Start > now })]
	res.Flows.Records = make([]metrics.FlowRecord, len(s.all))
	for i, fl := range s.all {
		res.Flows.Records[i] = snapshot(fl, fl.ID <= uint64(len(s.plan.flows)) && s.plan.flows[fl.ID-1].Incast)
	}
	if sc.SampleQueues {
		var totals, reds []int64
		for _, pl := range planes {
			for _, ser := range pl.q1.Series() {
				if ser.Metric == "bytes" {
					totals = ser.Values.AppendTo(totals)
				} else {
					reds = ser.Values.AppendTo(reds)
				}
			}
		}
		res.QueueAvg, res.QueueP90 = metrics.Stats(totals, 0.9)
		res.QueueRedAvg, res.QueueRedP90 = metrics.Stats(reds, 0.9)
	}
	countFabricDrops(s.fab, res)
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
			Violations:        s.aud.Violations(),
			ViolationsDropped: s.aud.Dropped(),
			Timelines:         forensics.WorstTimelines(s.rec, res.Trace, s.all, s.slowdown, sc.Forensics),
		}
	}

	if planes[0].reg != nil { // telemetry on
		// Workload accounting is global, not per-plane: fold it into
		// plane 0's registry before the merge.
		recordWorkloadObs(planes[0].reg, s.plan.flows, s.all)
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

// byStart orders flows by start time.
func byStart(a, b *transport.Flow) int { return cmp.Compare(a.Start, b.Start) }

// liveEvery is the sim-time period of a run's live status reports.
const liveEvery = sim.Millisecond

// snapshot is fl's row in the run's flow table.
func snapshot(fl *transport.Flow, incast bool) metrics.FlowRecord {
	return metrics.FlowRecord{
		ID:             fl.ID,
		Size:           fl.Size,
		Start:          fl.Start,
		FCT:            fl.FCT(),
		Completed:      fl.Completed,
		Legacy:         fl.Legacy,
		Incast:         incast,
		Transport:      fl.Transport,
		Timeouts:       fl.Timeouts,
		Retransmits:    fl.Retransmits,
		ProRetx:        fl.ProRetx,
		Redundant:      fl.RedundantSegs,
		MaxReorderB:    fl.MaxReorderB,
		RxBytes:        fl.RxBytes,
		RxBytesPro:     fl.RxBytesPro,
		RxBytesRe:      fl.RxBytesRe,
		CreditsGranted: fl.CreditsGranted,
		CreditsWasted:  fl.CreditsWasted,
	}
}

// sample starts a private prober over reg — a measurement's own sources
// and cadence, apart from the run's telemetry options — capped to hold
// every tick of a run of length window, so no sample is displaced. A nil
// reg gives a nil prober, which schedules nothing.
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
