// Package harness runs the paper's experiments: it builds a fabric with a
// scheme's queue profile, generates workloads, assigns flows to legacy or
// upgraded transports by per-rack deployment, runs the simulation, and
// collects metrics. Run (run.go) is the one runner: every scenario, on one
// engine or on several, goes through it.
package harness

import (
	"fmt"
	"math/rand"
	"time"

	"flexpass/internal/faults"
	"flexpass/internal/forensics"
	"flexpass/internal/live"
	"flexpass/internal/metrics"
	"flexpass/internal/netem"
	"flexpass/internal/obs"
	"flexpass/internal/sim"
	"flexpass/internal/topo"
	"flexpass/internal/trace"
	"flexpass/internal/transport"
	"flexpass/internal/units"
	"flexpass/internal/workload"
)

// Scheme is a deployment strategy from §6.2.
type Scheme string

// The compared schemes. Any name in schemes.Names() is accepted; these
// are the ones the paper's figures sweep.
const (
	SchemeNaive        Scheme = transport.SchemeNaive        // ExpressPass sharing the legacy queue, full-rate credits
	SchemeOWF          Scheme = transport.SchemeOWF          // oracle weighted fair queueing
	SchemeLayering     Scheme = transport.SchemeLayering     // LY: window-gated ExpressPass in the shared queue
	SchemeFlexPass     Scheme = transport.SchemeFlexPass     // the paper's design
	SchemeFlexPassAltQ Scheme = transport.SchemeFlexPassAltQ // §4.3 ablation: reactive sub-flow in Q2
	SchemeFlexPassRC3  Scheme = transport.SchemeFlexPassRC3  // §4.3 ablation: RC3-style flow splitting
)

// Scenario fully describes one simulation run.
type Scenario struct {
	Seed int64

	// Fabric. Clos is the fabric's shape — a Clos, or a one-plane testbed
	// (topo.SingleSwitchLayout, topo.DumbbellLayout); Run builds it.
	Clos      topo.Layout
	LinkRate  units.Rate
	LinkDelay sim.Time
	HostDelay sim.Time
	SwitchBuf units.ByteSize
	BufAlpha  float64

	// Scheme and its knobs.
	Scheme Scheme
	WQ     float64   // FlexPass queue weight (w_q); FlexPass is insensitive to it
	Spec   topo.Spec // threshold overrides (selective drop / ECN)

	// Workload. The legacy parameter knobs (Workload CDF, IncastFraction,
	// IncastFlowSize) and the composable plan below both route through
	// the same generator: when WorkloadPlan is nil, planWorkload builds
	// the equivalent builtin plan, which consumes the workload RNG stream
	// bit-identically to the historical direct-parameter path.
	Workload       *workload.CDF
	Load           float64
	Deployment     float64 // fraction of FlexPass/ExpressPass-enabled deployment groups (racks)
	IncastFraction float64 // foreground incast volume fraction (0 = none)
	IncastFlowSize int64
	Duration       sim.Time // arrival window
	Drain          sim.Time // extra time for in-flight flows to finish

	// WorkloadPlan, when non-nil, replaces the parameter workload with a
	// composable source plan (see workload.Plan): Poisson/ON-OFF/
	// lognormal backgrounds, incast, RPC coflows, and trace replay, each
	// optionally rate-modulated, generated against this scenario's
	// topology, load, and duration. TraceFlows still wins over both.
	WorkloadPlan *workload.Plan

	// SampleQueues enables Q1 occupancy sampling at ToR uplinks (every
	// 100us, Result.Queue*; a testbed has none). The samples come from a
	// prober of their own, so the statistics do not depend on Telemetry or
	// its SeriesCap.
	SampleQueues bool

	// Shards requests the parallel engine: the fabric is cut into
	// Clos.Planes(Shards) planes — a Clos into per-pod-block subtrees
	// (cores with pod 0), a testbed layout always into one — each driven
	// by its own engine goroutine, synchronized conservatively on the
	// propagation delay across the cut (see internal/sim/shard). One plane
	// is the N = 1 case of the same runner, recorded in the manifest as 0.
	// Flow results are identical at every N (see Run); Forensics needs
	// N = 1 and Run panics otherwise.
	Shards int

	// Telemetry, when non-nil, enables the obs instrumentation plane:
	// the fabric and every transport register into a central registry, a
	// periodic prober samples them into time series, and Result.Telemetry
	// carries the exportable run artifact. Probing is observation-only —
	// enabling it never changes simulation results, only adds observer
	// events to the heap.
	Telemetry *obs.Options

	// Forensics, when non-nil, enables the forensic plane on top of
	// telemetry (which it switches on implicitly): hop-by-hop packet
	// recording at every port, invariant auditors on the engine clock,
	// and worst-slowdown flow timelines in Result.Forensics and the
	// exported artifact. Like telemetry it is observation-only: flow
	// results stay byte-identical to a plain run with the same seed.
	Forensics *forensics.Options

	// FaultPlan, when non-nil, injects the scripted fault timeline into
	// the run (see internal/faults): link flaps, rate degradation, burst
	// loss, and credit-targeted loss on named ports. The plan is applied
	// at a fixed point — after fabric construction, before flow-arrival
	// scheduling — so a (seed, plan) pair replays bit-identically. Run
	// panics if a link pattern matches no port in the built fabric; plans
	// from user input should come through faults.ParsePlan / ParseSpec,
	// which validate structure up front.
	FaultPlan *faults.Plan

	// Profile enables the engine self-profiler: every dispatched event is
	// timed and attributed to the component that scheduled it (transport
	// scheme, port serialization/pacing, prober, auditor, faults, ...).
	// Attribution labels are pure metadata and the accumulator is a fixed
	// array, so profiling never changes flow results or allocates on the
	// dispatch path; it only adds two clock reads per event. Results land
	// in Result.Profile and, with telemetry on, the manifest.
	Profile bool

	// Live, when non-nil, receives progress snapshots (sim-clock
	// position, flow counts, registry readings) every millisecond of sim
	// time so an introspection server can report /status and /metrics
	// while the run executes. Implies telemetry. The board is the
	// thread-safety boundary: the engine publishes into it, HTTP
	// goroutines read from it.
	Live *live.RunBoard

	// SchemeOptions carries per-scheme parameters by option key (see the
	// transport.Opt* constants): FlexPass's §4.2 proactive-retransmission
	// ablation, its §4.3 reactive-sub-flow algorithm, and so on. Schemes
	// only read the map.
	SchemeOptions map[string]string

	// ManifestConfig adds caller-owned entries to the exported
	// manifest's Config map (the sweep orchestrator stamps its scenario
	// hash and topology label here). Keys collide with the harness's own
	// Config entries only if the caller chooses harness key names; the
	// caller's values win.
	ManifestConfig map[string]string

	// TraceFlows, when non-nil, replaces the generated workload entirely
	// (replay of an exported or external trace). Host indices must be
	// valid for the configured fabric.
	TraceFlows []workload.FlowSpec

	// Deadline, when positive, caps the wall-clock time of each
	// Session.Run call: every engine checks it at its 256-dispatch watch
	// poll, the first past it stops them all, and Run panics with a
	// *KilledError (Reason "deadline"). Zero disables. The check only
	// reads the wall clock — it never perturbs event order, so a run
	// that finishes in time is bit-identical to an unsupervised one.
	Deadline time.Duration

	// StallTimeout, when positive, kills the run when an engine finds,
	// at its watch poll, that its own clock has not moved for this much
	// wall-clock time — a livelock, events churning at one instant. It
	// stops every engine and Run panics with a *KilledError (Reason
	// "stall"). Zero disables. An engine that dispatches nothing at all
	// reaches no poll; the farm's PointTimeout backstop covers that.
	StallTimeout time.Duration
}

// BaseScenario returns the §6.2 configuration at the given scale. Scale 1
// is the paper's fabric (192 hosts); smaller scales shrink the fabric and
// default duration so the full suite runs quickly.
func BaseScenario(full bool) Scenario {
	sc := Scenario{
		Seed:           1,
		Clos:           topo.SmallClos,
		LinkRate:       40 * units.Gbps,
		LinkDelay:      2 * sim.Microsecond,
		HostDelay:      1 * sim.Microsecond,
		SwitchBuf:      4500 * units.KB,
		BufAlpha:       0.25,
		Scheme:         SchemeFlexPass,
		WQ:             0.5,
		Workload:       workload.WebSearch,
		Load:           0.5,
		Deployment:     0.5,
		IncastFlowSize: 8000,
		Duration:       15 * sim.Millisecond,
		Drain:          60 * sim.Millisecond,
	}
	if full {
		sc.Clos = topo.PaperClos
		sc.Duration = 50 * sim.Millisecond
		sc.Drain = 100 * sim.Millisecond
	}
	return sc
}

// BaseFor returns the scenario a fabric starts from: BaseScenario's §6.2
// configuration on a Clos, and on a testbed layout (one switch, a
// dumbbell) the §6.1 testbed — 10 GbE links and its switch thresholds
// (ECN at 60 kB in both queues, selective drop at 100 kB).
func BaseFor(layout topo.Layout) Scenario {
	sc := BaseScenario(false)
	sc.Clos = layout
	if _, clos := layout.(topo.ClosParams); !clos {
		sc.LinkRate = 10 * units.Gbps
		sc.Spec = topo.Spec{FlexECN: 60 * units.KB, FlexRed: 100 * units.KB, LegacyECN: 60 * units.KB}
	}
	return sc
}

// Result carries a run's outputs.
type Result struct {
	Scenario    Scenario
	Flows       metrics.Collector
	OracleWQ    float64 // the weight the oWF scheme used
	QueueAvg    int64   // Q1 occupancy stats (when sampled)
	QueueP90    int64
	QueueRedAvg int64
	QueueRedP90 int64
	DropsRed    int64  // selective drops across the fabric
	DropsCredit int64  // credits dropped by rate limiters (the ExpressPass feedback signal)
	DropsOther  int64  // data drops from buffer exhaustion
	Events      uint64 // engine events processed (perf visibility)

	// WallClock is the host time spent inside the event loop.
	WallClock time.Duration
	// Telemetry is the exportable run artifact (when Scenario.Telemetry
	// is set); Trace is the shared transport trace ring (when TraceCap>0).
	Telemetry *obs.Run
	Trace     *trace.Ring
	// Forensics carries auditor findings and worst-flow timelines (when
	// Scenario.Forensics is set). The same data rides in Telemetry's
	// artifact as "forensics" lines.
	Forensics *forensics.Report
	// Faults is the fired fault-action log (when Scenario.FaultPlan is
	// set); FaultDrops totals packets the plan's faults destroyed. The
	// action log also rides in Telemetry's artifact as "fault" lines.
	Faults     *faults.Applied
	FaultDrops netem.FaultStats
	// Profile is the engine self-profiler's per-component attribution
	// (when Scenario.Profile is set), summed over engines; render it with
	// prof.WriteTableProfile / prof.WriteFoldedProfile.
	Profile []obs.ComponentProfile
}

// WorkloadRand returns the deterministic random stream Run uses for
// workload generation at the given seed, so flow lists produced outside a
// run (Flows, and through it cmd/flexsim -dump-trace) replay identically.
func WorkloadRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + 17))
}

// runPlan is the engine-independent half of a run: the generated flow
// list and the deployment assignment.
type runPlan struct {
	hosts    int
	rackOf   []int // deployment group per host
	deployed int   // groups 0 to deployed-1 run the active scheme
	flows    []workload.FlowSpec
	oracleWQ float64
}

// upgraded reports whether a flow runs the active (non-legacy) scheme:
// both endpoints' deployment groups must be enabled.
func (p *runPlan) upgraded(f workload.FlowSpec) bool {
	return p.rackOf[f.Src] < p.deployed && p.rackOf[f.Dst] < p.deployed
}

// planWorkload generates the scenario's flow list, group deployment, and
// the oWF oracle weight (which needs the true upgraded-traffic
// fraction, hence workload first).
func planWorkload(sc Scenario) *runPlan {
	p := &runPlan{hosts: sc.Clos.Hosts()}
	p.rackOf = make([]int, p.hosts)
	groups := 0
	for i := range p.rackOf {
		p.rackOf[i] = sc.Clos.Group(i)
		groups = max(groups, p.rackOf[i]+1)
	}
	p.deployed = workload.DeployRacks(groups, sc.Deployment)
	env := workload.Env{
		Hosts:          p.hosts,
		RackOf:         p.rackOf,
		UplinkCapacity: sc.Clos.Capacity(sc.LinkRate),
		Load:           sc.Load,
		Duration:       sc.Duration,
	}
	switch {
	case sc.TraceFlows != nil:
		p.flows = sc.TraceFlows
	case sc.WorkloadPlan != nil:
		flows, err := sc.WorkloadPlan.Generate(env, WorkloadRand(sc.Seed))
		if err != nil {
			panic(fmt.Sprintf("harness: workload plan %q: %v", sc.WorkloadPlan.Name, err))
		}
		p.flows = flows
	default:
		// The parameter workload is the builtin plan: a Poisson
		// background at the scenario load plus the optional legacy
		// incast mix. LegacyPlan consumes the seeded stream exactly as
		// the historical direct-parameter path did, so golden flow
		// digests are unchanged (see scheme_digest_test.go).
		legacy := workload.LegacyPlan(sc.Workload, sc.IncastFraction, sc.IncastFlowSize)
		flows, err := legacy.Generate(env, WorkloadRand(sc.Seed))
		if err != nil {
			panic(fmt.Sprintf("harness: builtin workload: %v", err))
		}
		p.flows = flows
	}
	var upBytes, totBytes float64
	for _, f := range p.flows {
		totBytes += float64(f.Size)
		if p.upgraded(f) {
			upBytes += float64(f.Size)
		}
	}
	p.oracleWQ = 0.5
	if totBytes > 0 {
		p.oracleWQ = upBytes / totBytes
	}
	if p.oracleWQ < 0.02 {
		p.oracleWQ = 0.02
	}
	if p.oracleWQ > 0.98 {
		p.oracleWQ = 0.98
	}
	return p
}

// Flows returns the exact flow list the scenario would run — generated
// from the workload plan (or legacy parameters) on the scenario's own
// seeded stream, or the trace replay verbatim. Callers that need to
// re-run a scenario with a reduced flow set (the chaos shrinker) pin the
// original list through TraceFlows; because the workload RNG is a stream
// separate from the engine's, the replay is bit-identical to the
// generating run.
func Flows(sc Scenario) []workload.FlowSpec {
	return planWorkload(sc).flows
}

// WorkloadName identifies the traffic the scenario runs, routed as
// planWorkload routes it: a trace replay by content ("trace:<digest>"), a
// plan by its name, the parameter workload by its CDF's name.
func (sc Scenario) WorkloadName() string {
	switch {
	case sc.TraceFlows != nil:
		return workload.TraceID(sc.TraceFlows)
	case sc.WorkloadPlan != nil:
		return sc.WorkloadPlan.Name
	case sc.Workload != nil:
		return sc.Workload.Name
	}
	return ""
}

// buildManifest assembles the exported run manifest. shards is the
// run's engine count; one engine is recorded as 0, so the field is
// omitted from the artifact exactly as before sharding.
func buildManifest(sc Scenario, probe sim.Time, res *Result, shards int) obs.Manifest {
	if shards == 1 {
		shards = 0
	}
	wallMS := float64(res.WallClock) / float64(time.Millisecond)
	eps := 0.0
	if secs := res.WallClock.Seconds(); secs > 0 {
		eps = float64(res.Events) / secs
	}
	config := map[string]string{
		"link_rate":      sc.LinkRate.String(),
		"link_delay":     sc.LinkDelay.String(),
		"host_delay":     sc.HostDelay.String(),
		"switch_buf":     sc.SwitchBuf.String(),
		"buf_alpha":      fmt.Sprintf("%g", sc.BufAlpha),
		"probe_interval": probe.String(),
	}
	for k, v := range sc.ManifestConfig {
		config[k] = v
	}
	planName, planHash := "", ""
	if sc.FaultPlan != nil {
		planName, planHash = sc.FaultPlan.Name, sc.FaultPlan.Hash()
	}
	wplanName, wplanHash := "", ""
	if sc.WorkloadPlan != nil {
		wplanName, wplanHash = sc.WorkloadPlan.Name, sc.WorkloadPlan.Hash()
	}
	// Forensic retention accounting rides in the manifest so readers can
	// tell a clean run from one whose violation list was truncated at the
	// auditor cap (res.Forensics is assembled before the manifest).
	vioDropped := int64(0)
	if res.Forensics != nil {
		vioDropped = res.Forensics.ViolationsDropped
	}
	return obs.Manifest{
		Seed:              sc.Seed,
		Topology:          sc.Clos.String(),
		Scheme:            string(sc.Scheme),
		Workload:          sc.WorkloadName(),
		Load:              sc.Load,
		Deployment:        sc.Deployment,
		WQ:                sc.WQ,
		DurationPs:        int64(sc.Duration + sc.Drain),
		Shards:            shards,
		SchemeOptions:     sc.SchemeOptions,
		FaultPlan:         planName,
		FaultPlanHash:     planHash,
		WorkloadPlan:      wplanName,
		WorkloadPlanHash:  wplanHash,
		Revision:          obs.RepoRevision(),
		Config:            config,
		WallMS:            wallMS,
		Events:            res.Events,
		EventsPerSec:      eps,
		Profile:           res.Profile,
		ViolationsDropped: vioDropped,
		Q1AvgB:            res.QueueAvg,
		Q1P90B:            res.QueueP90,
		Q1RedAvgB:         res.QueueRedAvg,
		Q1RedP90B:         res.QueueRedP90,
	}
}
