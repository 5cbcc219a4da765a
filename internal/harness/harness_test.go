package harness

import (
	"context"
	"strings"
	"testing"

	"flexpass/internal/metrics"
	"flexpass/internal/sim"
	"flexpass/internal/topo"
	"flexpass/internal/transport"
	"flexpass/internal/units"
)

// miniBase is a fast small-scale scenario for shape assertions.
func miniBase() Scenario {
	sc := BaseScenario(false)
	sc.Duration = 10 * sim.Millisecond
	sc.Drain = 50 * sim.Millisecond
	return sc
}

// incomplete counts the run's flows that never finished.
func incomplete(res *Result) int { return metrics.Summarize(res.Flows.Records).Incomplete() }

func TestRunProducesCompleteFlows(t *testing.T) {
	sc := miniBase()
	sc.Duration = 5 * sim.Millisecond
	res := Run(sc)
	if len(res.Flows.Records) == 0 {
		t.Fatal("no flows generated")
	}
	if incomplete(res) > 0 {
		t.Fatalf("%d flows incomplete after drain", incomplete(res))
	}
}

func TestRunDeterministic(t *testing.T) {
	sc := miniBase()
	sc.Duration = 3 * sim.Millisecond
	a := Run(sc)
	b := Run(sc)
	if len(a.Flows.Records) != len(b.Flows.Records) {
		t.Fatal("flow counts differ between identical runs")
	}
	for i := range a.Flows.Records {
		if a.Flows.Records[i].FCT != b.Flows.Records[i].FCT {
			t.Fatalf("flow %d FCT differs: %v vs %v", i,
				a.Flows.Records[i].FCT, b.Flows.Records[i].FCT)
		}
	}
}

// TestFig17ThresholdTradeoff runs FlexPass fully deployed at two Q1
// selective-dropping thresholds, as ci/figures/fig17.json's red_kb axis
// does: both must complete every flow.
func TestFig17ThresholdTradeoff(t *testing.T) {
	thresholds := []units.ByteSize{50 * units.KB, 150 * units.KB}
	left := make([]int, len(thresholds))
	Each(context.Background(), 0, len(thresholds), func(_, i int) {
		sc := miniBase()
		sc.Duration = 5 * sim.Millisecond
		sc.Scheme, sc.Deployment = SchemeFlexPass, 1.0
		sc.Spec.FlexRed = thresholds[i]
		sc.SampleQueues = true
		left[i] = incomplete(Run(sc))
	})
	for i, n := range left {
		if n > 0 {
			t.Errorf("threshold %v left %d flows incomplete", thresholds[i], n)
		}
	}
}

// TestFig18WQSweepRuns runs FlexPass at two queue weights w_q, as
// ci/figures/fig18.json's wq axis does: each must measure a legacy
// small-flow tail with nothing deployed and a small-flow tail fully
// deployed.
func TestFig18WQSweepRuns(t *testing.T) {
	wqs, deps := []float64{0.4, 0.6}, []float64{0, 1}
	sums := make([]metrics.Summary, len(wqs)*len(deps))
	Each(context.Background(), 0, len(sums), func(_, i int) {
		sc := miniBase()
		sc.Duration = 4 * sim.Millisecond
		sc.Scheme = SchemeFlexPass
		sc.WQ, sc.Deployment = wqs[i/len(deps)], deps[i%len(deps)]
		sums[i] = metrics.Summarize(Run(sc).Flows.Records)
	})
	for w, wq := range wqs {
		if sums[w*len(deps)].P99SmallLegacy == 0 {
			t.Errorf("wq=%.2f: missing legacy tail at 0%% deployment", wq)
		}
		if sums[w*len(deps)+1].P99Small == 0 {
			t.Errorf("wq=%.2f: missing full-deployment point", wq)
		}
	}
}

func TestOracleWQTracksDeployment(t *testing.T) {
	sc := miniBase()
	sc.Duration = 4 * sim.Millisecond
	sc.Scheme = SchemeOWF
	sc.Deployment = 1.0
	res := Run(sc)
	if res.OracleWQ < 0.9 {
		t.Fatalf("oracle weight %.2f at full deployment, want ~1", res.OracleWQ)
	}
	sc.Deployment = 0
	res = Run(sc)
	if res.OracleWQ > 0.1 {
		t.Fatalf("oracle weight %.2f at zero deployment, want ~0", res.OracleWQ)
	}
}

func TestMixedTrafficIncastRuns(t *testing.T) {
	sc := miniBase()
	sc.Duration = 5 * sim.Millisecond
	sc.IncastFraction = 0.1
	res := Run(sc)
	incast := 0
	for _, r := range res.Flows.Records {
		if r.Incast && r.Completed {
			incast++
		}
	}
	if incast == 0 {
		t.Fatal("no foreground incast flows completed")
	}
	if incomplete(res) > 0 {
		t.Fatalf("%d incomplete flows", incomplete(res))
	}
}

func TestQueueOccupancySampled(t *testing.T) {
	sc := miniBase()
	sc.Duration = 5 * sim.Millisecond
	sc.SampleQueues = true
	sc.Deployment = 1.0
	res := Run(sc)
	if res.QueueP90 == 0 && res.QueueAvg == 0 {
		t.Fatal("queue sampling produced nothing")
	}
	// Bounded queue: Q1 occupancy must stay at the selective-dropping
	// scale, far below the 1.125MB dynamic buffer bound.
	if res.QueueP90 > 300_000 {
		t.Fatalf("Q1 p90 occupancy %dB; not bounded", res.QueueP90)
	}
}

// TestQueueSamplingPlainProfile: the all-legacy profile's ports have one
// queue and no Q1, so sampling queues on a DCTCP run samples nothing and
// reports no Q1 occupancy, where it used to index the missing queue.
func TestQueueSamplingPlainProfile(t *testing.T) {
	sc := miniBase()
	sc.Clos = topo.ClosParams{Pods: 2, AggPerPod: 1, TorPerPod: 1, HostsPerTor: 2, Cores: 1}
	sc.Scheme = Scheme(transport.SchemeDCTCP)
	sc.Duration = sim.Millisecond
	sc.SampleQueues = true
	res := Run(sc)
	if len(res.Flows.Records) == 0 {
		t.Fatal("no flows generated")
	}
	if res.QueueAvg != 0 || res.QueueP90 != 0 || res.QueueRedAvg != 0 || res.QueueRedP90 != 0 {
		t.Fatalf("one-queue run reports Q1 occupancy avg %d p90 %d red %d/%d",
			res.QueueAvg, res.QueueP90, res.QueueRedAvg, res.QueueRedP90)
	}
}

// TestQueueSamplingWithoutQ1AddsNoEvents: a plane with no Q1 to sample —
// a one-queue (all-legacy) Clos at one and two planes, a single-switch
// testbed with no ToR uplink — starts no Q1 prober, so SampleQueues
// leaves its events and flow records as they are without it.
func TestQueueSamplingWithoutQ1AddsNoEvents(t *testing.T) {
	mini := topo.ClosParams{Pods: 2, AggPerPod: 1, TorPerPod: 1, HostsPerTor: 2, Cores: 1}
	for _, tc := range []struct {
		name   string
		layout topo.Layout
		scheme string
		shards int
	}{
		{"dctcp/clos", mini, transport.SchemeDCTCP, 1},
		{"dctcp/clos/shards=2", mini, transport.SchemeDCTCP, 2},
		{"flexpass/single-switch", topo.SingleSwitchLayout{N: 4}, transport.SchemeFlexPass, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := BaseFor(tc.layout)
			sc.Scheme, sc.Shards, sc.Deployment = Scheme(tc.scheme), tc.shards, 1
			sc.Duration, sc.Drain = sim.Millisecond, 5*sim.Millisecond
			plain := Run(sc)
			sc.SampleQueues = true
			sampled := Run(sc)
			if len(plain.Flows.Records) == 0 {
				t.Fatal("no flows generated")
			}
			if sampled.Events != plain.Events {
				t.Fatalf("SampleQueues dispatched %d events, %d without it", sampled.Events, plain.Events)
			}
			sameFlows(t, "SampleQueues against none", sampled, plain)
		})
	}
}

// TestOpenChecksSchemeOptions: a scenario built in code with an option
// value the table does not accept is refused by Open with the table's
// error, before any event runs, not by the first sender that reads it.
func TestOpenChecksSchemeOptions(t *testing.T) {
	sc := miniBase()
	sc.Deployment = 1
	sc.SchemeOptions = map[string]string{transport.OptReactive: "cubic"}
	_, err := Try(func(sc Scenario) *Result {
		Open(sc)
		t.Error("Open accepted reactive=cubic")
		return nil
	}, sc)
	if err == nil || !strings.Contains(err.Error(), "want one of dctcp, reno") {
		t.Fatalf("Open came back with %v, want the options table's error", err)
	}
}
