package harness

import (
	"testing"

	"flexpass/internal/sim"
	"flexpass/internal/topo"
	"flexpass/internal/transport"
	"flexpass/internal/workload"
)

func TestAblationsRun(t *testing.T) {
	base := miniBase()
	base.Duration = 4 * sim.Millisecond
	rows := Ablations(base)
	if len(rows) != 5 {
		t.Fatalf("%d ablation rows", len(rows))
	}
	names := map[string]bool{}
	for _, r := range rows {
		names[r.Name] = true
		if r.Point.Incomplete > 0 {
			t.Errorf("%s: %d incomplete flows", r.Name, r.Point.Incomplete)
		}
		if r.Point.P99Small == 0 {
			t.Errorf("%s: missing tail measurement", r.Name)
		}
	}
	for _, want := range []string{"flexpass", "no-proactive-retx", "reno-reactive", "rc3-split", "alt-queueing"} {
		if !names[want] {
			t.Errorf("ablation %q missing", want)
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
