package harness

import (
	"context"
	"testing"

	"flexpass/internal/metrics"
	"flexpass/internal/sim"
	"flexpass/internal/topo"
	"flexpass/internal/transport"
	"flexpass/internal/workload"
)

// TestAblationsRun runs the five §4.3 design-choice variants of
// ci/figures/ablations*.json at 50% deployment: each must complete every
// flow and measure a small-flow tail.
func TestAblationsRun(t *testing.T) {
	variants := []struct {
		name string
		mod  func(*Scenario)
	}{
		{"flexpass", func(*Scenario) {}},
		{"no-proactive-retx", func(sc *Scenario) {
			sc.SchemeOptions = map[string]string{transport.OptDisableProRetx: "1"}
		}},
		{"reno-reactive", func(sc *Scenario) {
			sc.SchemeOptions = map[string]string{transport.OptReactive: "reno"}
		}},
		{"rc3-split", func(sc *Scenario) { sc.Scheme = SchemeFlexPassRC3 }},
		{"alt-queueing", func(sc *Scenario) { sc.Scheme = SchemeFlexPassAltQ }},
	}
	sums := make([]metrics.Summary, len(variants))
	Each(context.Background(), 0, len(variants), func(_, i int) {
		sc := miniBase()
		sc.Duration = 4 * sim.Millisecond
		sc.Scheme, sc.Deployment = SchemeFlexPass, 0.5
		variants[i].mod(&sc)
		sums[i] = metrics.Summarize(Run(sc).Flows.Records)
	})
	for i, s := range sums {
		if n := s.Incomplete(); n > 0 {
			t.Errorf("%s: %d incomplete flows", variants[i].name, n)
		}
		if s.P99Small == 0 {
			t.Errorf("%s: missing tail measurement", variants[i].name)
		}
	}
}

func TestRenoReactiveScenarioRuns(t *testing.T) {
	sc := miniBase()
	sc.Duration = 4 * sim.Millisecond
	sc.SchemeOptions = map[string]string{transport.OptReactive: "reno"}
	sc.Deployment = 1.0
	res := Run(sc)
	if incomplete(res) > 0 {
		t.Fatalf("%d incomplete with Reno reactive", incomplete(res))
	}
}

func TestTraceReplayMatchesGenerated(t *testing.T) {
	// Running a scenario from its own exported trace must reproduce the
	// same flow population (sizes, pairs, count).
	sc := miniBase()
	sc.Duration = 3 * sim.Millisecond
	direct := Run(sc)

	// Regenerate the same workload out-of-band and replay it.
	clos := sc.Clos.(topo.ClosParams)
	rackOf := make([]int, clos.Hosts())
	for i := range rackOf {
		rackOf[i] = i / clos.HostsPerTor
	}
	uplinks := clos.Hosts() / clos.HostsPerTor * clos.AggPerPod
	bg := workload.BackgroundParams{
		CDF:            sc.Workload,
		Hosts:          clos.Hosts(),
		RackOf:         rackOf,
		UplinkCapacity: sc.LinkRate.Scale(float64(uplinks)),
		Load:           sc.Load,
		Duration:       sc.Duration,
	}
	flows := bg.Generate(WorkloadRand(sc.Seed))
	replay := sc
	replay.TraceFlows = flows
	replayed := Run(replay)

	if len(direct.Flows.Records) != len(replayed.Flows.Records) {
		t.Fatalf("flow counts differ: %d direct vs %d replayed",
			len(direct.Flows.Records), len(replayed.Flows.Records))
	}
	for i := range direct.Flows.Records {
		if direct.Flows.Records[i].Size != replayed.Flows.Records[i].Size {
			t.Fatalf("flow %d size differs", i)
		}
		if direct.Flows.Records[i].FCT != replayed.Flows.Records[i].FCT {
			t.Fatalf("flow %d FCT differs: %v vs %v", i,
				direct.Flows.Records[i].FCT, replayed.Flows.Records[i].FCT)
		}
	}
}
