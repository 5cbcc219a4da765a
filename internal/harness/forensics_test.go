package harness

import (
	"path/filepath"
	"testing"

	"flexpass/internal/faults"
	"flexpass/internal/forensics"
	"flexpass/internal/obs"
	"flexpass/internal/sim"
	"flexpass/internal/topo"
	"flexpass/internal/workload"
)

func forensicsScenario() Scenario {
	sc := telemetryScenario()
	sc.Forensics = &forensics.Options{}
	return sc
}

// TestForensicsRunArtifact is the tentpole's acceptance test: a forensic
// run yields worst-flow timelines with hop-by-hop records and per-hop
// delay breakdowns, the healthy invariants all hold, and the whole
// report round-trips through the JSONL artifact.
func TestForensicsRunArtifact(t *testing.T) {
	res := Run(forensicsScenario())
	rep := res.Forensics
	if rep == nil {
		t.Fatal("forensics enabled but Result.Forensics is nil")
	}

	// A healthy run violates no invariants.
	if len(rep.Violations) != 0 {
		t.Fatalf("healthy run produced violations: %v", rep.Violations)
	}

	if len(rep.Timelines) == 0 {
		t.Fatal("no timelines exported")
	}
	for _, tl := range rep.Timelines {
		if len(tl.Hops) == 0 {
			t.Fatalf("flow %d timeline has no hop records", tl.Flow)
		}
		if len(tl.Delays) == 0 {
			t.Fatalf("flow %d timeline has no per-hop delay breakdown", tl.Flow)
		}
		if len(tl.Events) == 0 {
			t.Fatalf("flow %d timeline has no lifecycle events", tl.Flow)
		}
		if tl.Transport == "" || tl.Size == 0 {
			t.Fatalf("flow %d timeline missing identity: %+v", tl.Flow, tl)
		}
	}

	// Forensics implies telemetry even though Scenario.Telemetry was set:
	// the artifact carries the report as forensics lines.
	run := res.Telemetry
	if run == nil {
		t.Fatal("forensics did not produce a telemetry artifact")
	}
	if len(run.Forensics) != len(rep.Timelines) {
		t.Fatalf("artifact carries %d forensics lines, want %d timelines",
			len(run.Forensics), len(rep.Timelines))
	}

	// Round-trip through a file.
	path := filepath.Join(t.TempDir(), "run.jsonl")
	if err := run.WriteJSONLFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := obs.ReadJSONLFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tls := got.Timelines()
	if len(tls) != len(rep.Timelines) {
		t.Fatalf("timelines did not round-trip: %d vs %d", len(tls), len(rep.Timelines))
	}
	want := rep.Timelines[0]
	rt := got.FindTimeline(want.Flow)
	if rt == nil {
		t.Fatalf("flow %d timeline missing after round trip", want.Flow)
	}
	if len(rt.Hops) != len(want.Hops) || len(rt.Delays) != len(want.Delays) ||
		len(rt.Events) != len(want.Events) || rt.Transport != want.Transport {
		t.Fatalf("timeline shape changed across round trip: %+v", rt)
	}
}

// TestForensicsImpliesTelemetry: enabling forensics without telemetry
// still produces the artifact (with a trace ring for lifecycle events),
// and the caller's nil Telemetry field stays nil.
func TestForensicsImpliesTelemetry(t *testing.T) {
	sc := forensicsScenario()
	sc.Telemetry = nil
	res := Run(sc)
	if res.Telemetry == nil {
		t.Fatal("forensics alone did not enable telemetry")
	}
	if res.Trace == nil || res.Trace.Len() == 0 {
		t.Fatal("forensics alone did not enable the trace ring")
	}
	if res.Scenario.Telemetry != nil {
		t.Fatal("Run mutated the scenario's Telemetry field")
	}
	if len(res.Forensics.Timelines) == 0 {
		t.Fatal("no timelines without explicit telemetry")
	}
}

// TestForensicsDoesNotPerturb verifies the observation-only claim: hop
// recording and auditors enabled vs a completely plain run produce
// byte-identical flow results with the same seed.
func TestForensicsDoesNotPerturb(t *testing.T) {
	sc := forensicsScenario()
	sc.Telemetry = nil
	with := Run(sc)
	sc.Forensics = nil
	without := Run(sc)

	a, b := with.Flows.Records, without.Flows.Records
	if len(a) != len(b) {
		t.Fatalf("flow counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].FCT != b[i].FCT || a[i].Size != b[i].Size {
			t.Fatalf("flow %d diverged: forensics %+v vs plain %+v", i, a[i], b[i])
		}
	}
	if with.DropsRed != without.DropsRed || with.DropsCredit != without.DropsCredit ||
		with.DropsOther != without.DropsOther {
		t.Fatal("drop counts diverged under forensics")
	}
}

// TestTestbedObservers: a testbed is a layout like any other, so a Fig
// 9(b)-shaped run (FlexPass h0→h1 beside DCTCP h2→h1) takes telemetry,
// forensics, the profiler and a fault plan on the receiver's downlink —
// and the observers still change no flow record.
func TestTestbedObservers(t *testing.T) {
	sc := BaseFor(topo.SingleSwitchLayout{N: 3})
	sc.Deployment, sc.Duration, sc.Drain = 2.0/3, 5*sim.Millisecond, 50*sim.Millisecond
	sc.TraceFlows = []workload.FlowSpec{{Src: 0, Dst: 1, Size: 3_000_000}, {Src: 2, Dst: 1, Size: 3_000_000}}
	plan, err := faults.ParseSpec("down@sw0->h1@1ms-2ms")
	if err != nil {
		t.Fatal(err)
	}
	sc.FaultPlan = plan
	plain := Run(sc)
	sc.Telemetry, sc.Forensics, sc.Profile = &obs.Options{}, &forensics.Options{}, true
	res := Run(sc)

	sameFlows(t, "observed vs plain", res, plain)
	if len(plain.Flows.Records) != 2 {
		t.Fatalf("%d flow records, want 2", len(plain.Flows.Records))
	}
	if incomplete(res) != 0 || res.FaultDrops.Injected == 0 {
		t.Fatalf("%d flows incomplete, %d fault drops: the run does not exercise the fault", incomplete(res), res.FaultDrops.Injected)
	}
	if v := res.Forensics.Violations; len(v) != 0 {
		t.Fatalf("violations on a healthy testbed: %v", v)
	}
	if len(res.Telemetry.Forensics) == 0 || len(res.Profile) == 0 {
		t.Fatalf("%d exported timelines, %d profile rows", len(res.Telemetry.Forensics), len(res.Profile))
	}
	if got := res.Telemetry.Manifest.Topology; got != "single-switch hosts=3" {
		t.Fatalf("manifest topology %q", got)
	}
}

// TestBrokenAccountantTriggersViolation proves auditor findings reach
// the exported artifact: a deliberately broken credit accountant (the
// WrapCreditAccountant test seam under-reports issued credits by half)
// must produce credit-conservation violations in Result.Forensics and
// as forensics lines in the JSONL file.
func TestBrokenAccountantTriggersViolation(t *testing.T) {
	sc := forensicsScenario()
	sc.Forensics = &forensics.Options{
		WrapCreditAccountant: func(issued, consumed, dropped func() int64) (func() int64, func() int64, func() int64) {
			return func() int64 { return issued() / 2 }, consumed, dropped
		},
	}
	res := Run(sc)
	if res.Forensics == nil || len(res.Forensics.Violations) == 0 {
		t.Fatal("broken credit accountant produced no violations")
	}
	v := res.Forensics.Violations[0]
	if v.Auditor != "credit-conservation" || v.Detail == "" {
		t.Fatalf("unexpected violation: %+v", v)
	}

	path := filepath.Join(t.TempDir(), "run.jsonl")
	if err := res.Telemetry.WriteJSONLFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := obs.ReadJSONLFile(path)
	if err != nil {
		t.Fatal(err)
	}
	vs := got.Violations()
	if len(vs) != len(res.Forensics.Violations) {
		t.Fatalf("violations did not round-trip: file has %d, run had %d",
			len(vs), len(res.Forensics.Violations))
	}
	if vs[0].Auditor != "credit-conservation" || vs[0].AtPs <= 0 {
		t.Fatalf("exported violation malformed: %+v", vs[0])
	}
}
