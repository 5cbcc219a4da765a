package harness

import (
	"testing"

	"flexpass/internal/sim"
	"flexpass/internal/workload"
)

func TestRunPooledMergesSeeds(t *testing.T) {
	sc := miniBase()
	sc.Duration = 3 * sim.Millisecond
	single := RunPoint(sc)
	pooled := RunPooled(sc, []int64{1, 2, 3})
	if pooled.Incomplete > 0 {
		t.Fatalf("%d incomplete flows pooled", pooled.Incomplete)
	}
	// The pooled tail comes from ~3x the flows; it must be a plausible
	// FCT, and with seed 1 included it cannot be below every single-seed
	// statistic's reach.
	if pooled.P99Small == 0 || pooled.AvgAll == 0 {
		t.Fatal("pooled statistics missing")
	}
	if pooled.P99Small > 10*single.P99Small && single.P99Small > 0 {
		t.Fatalf("pooled p99 %v wildly off single-seed %v", pooled.P99Small, single.P99Small)
	}
}

func TestRunPooledSingleSeedMatchesRunPoint(t *testing.T) {
	sc := miniBase()
	sc.Duration = 3 * sim.Millisecond
	a := RunPoint(sc)
	b := RunPooled(sc, []int64{sc.Seed})
	if a.P99Small != b.P99Small || a.AvgAll != b.AvgAll {
		t.Fatalf("single-seed pooled (%v, %v) != RunPoint (%v, %v)",
			b.P99Small, b.AvgAll, a.P99Small, a.AvgAll)
	}
}

// TestRunPooledQueueWorstSeed: pooled Q1 statistics are the worst seed's,
// red bytes as well as totals, on a scenario whose Q1 is occupied (the
// one TestTelemetryDoesNotPerturb uses) and whose first seed is not the
// worst on red bytes.
func TestRunPooledQueueWorstSeed(t *testing.T) {
	sc := telemetryScenario()
	sc.Telemetry = nil
	sc.Workload, sc.Load = workload.CacheFollower, 0.8
	seeds := []int64{8, 9, 7}
	var want, first DeploymentPoint
	for i, seed := range seeds {
		one := sc
		one.Seed = seed
		r := Run(one)
		if i == 0 {
			first.QueueRedAvg, first.QueueRedP90 = r.QueueRedAvg, r.QueueRedP90
		}
		want.QueueAvg, want.QueueP90 = max(want.QueueAvg, r.QueueAvg), max(want.QueueP90, r.QueueP90)
		want.QueueRedAvg, want.QueueRedP90 = max(want.QueueRedAvg, r.QueueRedAvg), max(want.QueueRedP90, r.QueueRedP90)
	}
	if want.QueueRedAvg == 0 || first.QueueRedAvg == want.QueueRedAvg && first.QueueRedP90 == want.QueueRedP90 {
		t.Fatalf("red Q1 stats: first seed %+v, worst %+v — the comparison below would be vacuous", first, want)
	}
	got := RunPooled(sc, seeds)
	if got.QueueAvg != want.QueueAvg || got.QueueP90 != want.QueueP90 ||
		got.QueueRedAvg != want.QueueRedAvg || got.QueueRedP90 != want.QueueRedP90 {
		t.Fatalf("pooled Q1 avg %d p90 %d red %d/%d, want the worst seed's: avg %d p90 %d red %d/%d",
			got.QueueAvg, got.QueueP90, got.QueueRedAvg, got.QueueRedP90,
			want.QueueAvg, want.QueueP90, want.QueueRedAvg, want.QueueRedP90)
	}
}

// TestSweepPooledShapes:a Sweep with PoolSeeds flattens (point x seed)
// into the one pool; every point must come back in order and equal
// RunPooled of that point alone, field for field.
func TestSweepPooledShapes(t *testing.T) {
	sc := miniBase()
	sc.Duration = 2 * sim.Millisecond
	sc.PoolSeeds = []int64{1, 2}
	pts := Sweep(sc, []Scheme{SchemeFlexPass}, []float64{0, 1})
	if len(pts) != 2 {
		t.Fatalf("%d points", len(pts))
	}
	for i, d := range []float64{0, 1} {
		if pts[i].Deployment != d {
			t.Fatalf("point %d has deployment %v, want %v", i, pts[i].Deployment, d)
		}
		one := sc
		one.Scheme, one.Deployment = SchemeFlexPass, d
		if alone := RunPooled(one, sc.PoolSeeds); pts[i] != alone {
			t.Errorf("pooled sweep point %d = %+v, RunPooled alone = %+v", i, pts[i], alone)
		}
	}
}
