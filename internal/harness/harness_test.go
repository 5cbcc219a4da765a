package harness

import (
	"context"
	"slices"
	"testing"

	"flexpass/internal/metrics"
	"flexpass/internal/sim"
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

func TestFlexPassDeploymentShape(t *testing.T) {
	// The paper's central claims at small scale: during deployment
	// FlexPass barely harms legacy traffic and upgraded traffic gets a
	// much better tail; naïve ExpressPass wrecks the legacy tail.
	type point struct {
		scheme     Scheme
		deployment float64
	}
	var pts []point
	for _, s := range []Scheme{SchemeNaive, SchemeFlexPass} {
		for _, d := range []float64{0, 0.5, 1.0} {
			pts = append(pts, point{s, d})
		}
	}
	sums := make([]metrics.Summary, len(pts))
	Each(context.Background(), 0, len(pts), func(_, i int) {
		sc := miniBase()
		sc.Scheme, sc.Deployment = pts[i].scheme, pts[i].deployment
		sums[i] = metrics.Summarize(Run(sc).Flows.Records)
	})
	at := func(s Scheme, d float64) metrics.Summary { return sums[slices.Index(pts, point{s, d})] }
	base0 := at(SchemeNaive, 0).P99Small // all-legacy baseline

	fp50 := at(SchemeFlexPass, 0.5)
	if fp50.P99SmallLegacy > base0*3/2 {
		t.Errorf("FlexPass at 50%%: legacy p99 %v vs baseline %v — too much harm",
			fp50.P99SmallLegacy, base0)
	}
	if fp50.P99SmallNew >= fp50.P99SmallLegacy {
		t.Errorf("FlexPass at 50%%: upgraded p99 %v not better than legacy %v",
			fp50.P99SmallNew, fp50.P99SmallLegacy)
	}

	nv50 := at(SchemeNaive, 0.5)
	if nv50.P99SmallLegacy < base0*3/2 {
		t.Errorf("naïve at 50%%: legacy p99 %v vs baseline %v — expected strong degradation",
			nv50.P99SmallLegacy, base0)
	}

	fp100 := at(SchemeFlexPass, 1)
	if fp100.P99Small >= base0 {
		t.Errorf("FlexPass fully deployed p99 %v not better than DCTCP baseline %v",
			fp100.P99Small, base0)
	}
	fp0 := at(SchemeFlexPass, 0)
	if fp100.MeanFCT > fp0.MeanFCT*5/4 {
		t.Errorf("FlexPass fully deployed avg FCT %v vs baseline %v — utilization lost",
			fp100.MeanFCT, fp0.MeanFCT)
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
