package flexpass

import (
	"cmp"
	"fmt"

	"flexpass/internal/faults"
	"flexpass/internal/harness"
	"flexpass/internal/metrics"
	"flexpass/internal/netem"
	"flexpass/internal/obs"
	"flexpass/internal/sim"
	"flexpass/internal/topo"
	"flexpass/internal/transport"
	"flexpass/internal/units"
	"flexpass/internal/workload"
)

// Re-exported core types. External users interact with these through the
// façade; see the internal packages for full documentation.
type (
	// Time is a simulated instant/duration in picoseconds.
	Time = sim.Time
	// Rate is a link or pacing rate in bits per second.
	Rate = units.Rate
	// ByteSize is a data volume in bytes.
	ByteSize = units.ByteSize
	// Flow is a transport flow with live statistics.
	Flow = transport.Flow
	// Scheme selects a deployment strategy (§6.2).
	Scheme = harness.Scheme
	// Scenario describes one large-scale simulation run.
	Scenario = harness.Scenario
	// Result carries a run's collected metrics.
	Result = harness.Result
	// FlowRecord is a finished flow's statistics snapshot.
	FlowRecord = metrics.FlowRecord
	// CDF is a flow-size distribution.
	CDF = workload.CDF
	// TelemetryOptions enables the run-wide stats registry, periodic
	// probes, and optional transport trace ring (Scenario.Telemetry).
	TelemetryOptions = obs.Options
	// RunArtifact is a completed run's exported telemetry (manifest,
	// time series, counters, histograms, trace) — JSONL round-trippable.
	// A series' Values is an obs.Samples, run-length encoded in memory
	// and a plain integer array in the file: read it with Len, Each,
	// AppendTo or Slice.
	RunArtifact = obs.Run
	// FaultPlan is a deterministic scripted fault timeline
	// (Scenario.FaultPlan); see internal/faults for the event taxonomy.
	FaultPlan = faults.Plan
	// FaultEvent is one scripted fault in a plan.
	FaultEvent = faults.Event
)

// Fault-plan construction. A clean-vs-faulted comparison is a sweep with
// a fault axis (examples/sweeps/degradation.json, `make faults-demo`).
var (
	// ParseFaultPlan decodes and validates a JSON fault plan.
	ParseFaultPlan = faults.ParsePlan
	// ParseFaultSpec parses the CLI shorthand (down@LINK@WINDOW,...).
	ParseFaultSpec = faults.ParseSpec
)

// ReadRunArtifact loads a JSONL run artifact written by
// RunArtifact.WriteJSONLFile (or flexsim -telemetry-out).
func ReadRunArtifact(path string) (*RunArtifact, error) { return obs.ReadJSONLFile(path) }

// Common units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
	Kbps        = units.Kbps
	Mbps        = units.Mbps
	Gbps        = units.Gbps
	KB          = units.KB
	MB          = units.MB
)

// Deployment schemes.
const (
	SchemeNaive    = harness.SchemeNaive
	SchemeOWF      = harness.SchemeOWF
	SchemeLayering = harness.SchemeLayering
	SchemeFlexPass = harness.SchemeFlexPass
)

// Workload distributions.
var (
	WebSearch     = workload.WebSearch
	CacheFollower = workload.CacheFollower
	DataMining    = workload.DataMining
	Hadoop        = workload.Hadoop
)

// NewScenario returns the paper's §6.2 configuration; full selects the
// 192-host fabric, otherwise a scaled-down Clos.
func NewScenario(full bool) Scenario { return harness.BaseScenario(full) }

// Run executes a scenario.
func Run(sc Scenario) *Result { return harness.Run(sc) }

// TestbedKind selects a small fabric shape.
type TestbedKind int

// Testbed shapes.
const (
	// SingleSwitch connects all hosts to one switch (the paper's §6.1
	// testbed shape).
	SingleSwitch TestbedKind = iota
	// DumbbellPairs builds n/2 sender hosts and n/2 receiver hosts joined
	// by a bottleneck link at the fabric line rate.
	DumbbellPairs
)

// TestbedConfig parameterizes a Testbed.
type TestbedConfig struct {
	Kind     TestbedKind
	Hosts    int     // total hosts
	LinkRate Rate    // default 10Gbps
	WQ       float64 // FlexPass queue weight, default 0.5
	Seed     int64
}

// Testbed is a small fabric with the FlexPass switch configuration, for
// hand-built experiments: start flows by transport name and run the
// clock. All hosts share one switch (or a dumbbell) configured with the
// paper's three-queue layout. It is a one-plane harness session whose
// scenario has no flows of its own (harness.Open). The fabric owns every
// frame and recycles it at the end of its life (DESIGN.md "Packet
// ownership"): a custom receive handler installed on a host must not
// retain a *Packet past the callback.
type Testbed struct {
	Eng    *sim.Engine
	Fabric *topo.Fabric

	s *harness.Session
}

// NewTestbed builds a testbed: harness.TestbedScenario on the layout,
// BaseFor's scenario with the §6.2 switch thresholds rather than the §6.1
// testbed's.
func NewTestbed(cfg TestbedConfig) *Testbed {
	cfg.Hosts = cmp.Or(cfg.Hosts, 3)
	var layout topo.Layout
	switch cfg.Kind {
	case SingleSwitch:
		layout = topo.SingleSwitchLayout{N: cfg.Hosts}
	case DumbbellPairs:
		layout = topo.DumbbellLayout{Left: cfg.Hosts / 2, Right: cfg.Hosts - cfg.Hosts/2}
	default:
		panic("flexpass: unknown testbed kind")
	}
	sc := harness.TestbedScenario(layout)
	sc.Seed, sc.LinkRate, sc.WQ = cmp.Or(cfg.Seed, sc.Seed), cmp.Or(cfg.LinkRate, sc.LinkRate), cmp.Or(cfg.WQ, sc.WQ)
	s := harness.Open(sc)
	return &Testbed{Eng: s.Engine(), Fabric: s.Fabric(), s: s}
}

// SetLossRate injects random non-congestion loss around host dst,
// symmetric in mechanism on both directions:
//
//   - forward: every last-hop switch egress that delivers to host dst
//     (data, ACKs, and credits arriving at the host);
//   - reverse (when true): additionally the host's own NIC egress
//     (everything the host itself sends).
//
// The last hop is resolved by port peer identity, not registration
// index — on a DumbbellPairs fabric port 0 of switch 0 is the core
// link, so the old index-based lookup degraded the wrong link. Loss
// goes through the port fault API (netem.Port.SetLossRate, the
// Bernoulli case of the Gilbert–Elliott model), so drops are counted
// in Port.FaultStats and observed as fault drops. Rate 0 clears.
func (tb *Testbed) SetLossRate(dst int, rate float64, reverse bool) {
	id := tb.Fabric.Net.Host(dst).NodeID()
	ports := tb.Fabric.Net.PortsTo(id)
	if len(ports) == 0 {
		panic(fmt.Sprintf("flexpass: no egress delivers to host %d", dst))
	}
	for _, p := range ports {
		p.SetLossRate(rate)
	}
	if reverse {
		tb.Fabric.Net.Host(dst).NIC().SetLossRate(rate)
	}
}

// FaultPort returns the last-hop switch egress toward host dst — the
// port SetLossRate degrades — for direct use with the port fault API
// (SetDown, SetRateFraction, SetGilbertElliott, SetCreditLossRate).
func (tb *Testbed) FaultPort(dst int) *netem.Port {
	id := tb.Fabric.Net.Host(dst).NodeID()
	ports := tb.Fabric.Net.PortsTo(id)
	if len(ports) == 0 {
		panic(fmt.Sprintf("flexpass: no egress delivers to host %d", dst))
	}
	return ports[0]
}

// StartFlow begins a flow of size bytes from host src to host dst using
// the named transport — any name of the scheme table, schemes.Names():
// "flexpass", "dctcp", "expresspass", "layering", "homa", "phost", ...
// — at the current simulated time. The returned Flow exposes live
// statistics (RxBytes, FCT, ...). An unknown name panics.
func (tb *Testbed) StartFlow(transportName string, src, dst int, size int64) *Flow {
	return tb.s.StartFlow(tb.Eng.Now(), transportName, src, dst, size)
}

// StartFlowAt schedules a flow to begin at an absolute simulated time. An
// unknown transport name panics here, not when the flow would start.
func (tb *Testbed) StartFlowAt(at Time, transportName string, src, dst int, size int64) *Flow {
	return tb.s.StartFlow(at, transportName, src, dst, size)
}

// Run advances the simulation until the given absolute time.
func (tb *Testbed) Run(until Time) { tb.s.Run(until) }

// Flows returns every flow started on the testbed.
func (tb *Testbed) Flows() []*Flow { return tb.s.Flows() }
