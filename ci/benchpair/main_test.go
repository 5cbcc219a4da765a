package main

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"flexpass/internal/lake"
)

func TestQuantile(t *testing.T) {
	for _, c := range []struct {
		s    []float64
		p    float64
		want float64
	}{
		{nil, 0.5, 0},
		{[]float64{7}, 0.25, 7},
		{[]float64{1, 2, 3, 4}, 0.25, 1.75},
		{[]float64{1, 2, 3, 4}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4}, 0.75, 3.25},
		{[]float64{1, 2, 3, 4, 5}, 0.5, 3},
		{[]float64{1, 2, 3, 4, 5}, 1, 5},
	} {
		if got := quantile(c.s, c.p); got != c.want {
			t.Errorf("quantile(%v, %g) = %g, want %g", c.s, c.p, got, c.want)
		}
	}
}

var lower = metric{Name: "alloc_mb", Better: "lower", Bound: 0.2}

// TestCompare: wins and losses are counted pair by pair in the metric's
// better direction, ties for neither, and a gain is claimable only with
// at least 10 pairs, 9 wins in 10, and the change median further to the
// better side than the base's quartile spread.
func TestCompare(t *testing.T) {
	base := []float64{10, 12, 11, 13, 10, 10, 12, 11, 13, 10}
	c := compare(lower, base, []float64{8, 12, 9, 14, 7, 8, 12, 9, 14, 7})
	if c.Wins != 6 || c.Losses != 2 {
		t.Errorf("wins %d losses %d, want 6 and 2", c.Wins, c.Losses)
	}
	if want := (lake.Quartiles{Q1: 10, Median: 11, Q3: 12}); c.Base != want {
		t.Errorf("base quartiles %+v, want %+v", c.Base, want)
	}
	if c.Claimable || c.DeltaPct != -200.0/11 {
		t.Errorf("median 11 -> 9, no further than the spread of 2: claimable %t, delta %g%%", c.Claimable, c.DeltaPct)
	}
	better := []float64{5, 6, 5, 6, 5, 5, 6, 5, 6, 5}
	if c := compare(lower, base, better); !c.Claimable || c.Wins != 10 {
		t.Errorf("median 11 -> 5: claimable %t, wins %d", c.Claimable, c.Wins)
	}
	if c := compare(metric{Better: "higher"}, base, better); c.Claimable || c.Wins != 0 || c.Losses != 10 {
		t.Errorf("higher is better, the change got worse: claimable %t, wins %d losses %d", c.Claimable, c.Wins, c.Losses)
	}
	eightWins := []float64{5, 6, 5, 6, 5, 5, 6, 5, 16, 15}
	if c := compare(lower, base, eightWins); c.Claimable || c.Wins != 8 {
		t.Errorf("median 11 -> 5 at 8 wins of 10: claimable %t, wins %d", c.Claimable, c.Wins)
	}
	if c := compare(lower, []float64{10}, []float64{5}); c.Claimable {
		t.Error("one pair: claimable")
	}
	if c := compare(lower, base, base); c.Claimable || c.Regressed || c.Wins+c.Losses != 0 || !reflect.DeepEqual(c.Base, c.Change) {
		t.Errorf("base against itself: %+v", c)
	}
}

// TestRegressed: a metric regresses when the change median is worse than
// the base median by more than the metric's bound, in its better
// direction, and not at the bound.
func TestRegressed(t *testing.T) {
	base := []float64{100, 100, 100, 100, 100}
	for _, c := range []struct {
		m      metric
		change float64
		want   bool
	}{
		{lower, 119, false},
		{lower, 121, true},
		{lower, 50, false},
		{metric{Better: "higher", Bound: 0.25}, 76, false},
		{metric{Better: "higher", Bound: 0.25}, 74, true},
	} {
		change := []float64{c.change, c.change, c.change, c.change, c.change}
		if got := compare(c.m, base, change).Regressed; got != c.want {
			t.Errorf("%s is better, bound %g, 100 -> %g: regressed %t, want %t", c.m.Better, c.m.Bound, c.change, got, c.want)
		}
	}
}

// TestMissingValuesAreErrors: a summary line that lacks a metric, and a
// workload only one side ran, stop the report instead of reading as zero
// or vanishing, and the error names the side, the workload and the
// metric.
func TestMissingValuesAreErrors(t *testing.T) {
	sum := func(metrics string) *summary {
		s := &summary{}
		if err := json.Unmarshal([]byte(`{"workloads":{"observed":{"digest":"d","metrics":`+metrics+`}}}`), s); err != nil {
			t.Fatal(err)
		}
		return s
	}
	metrics := []metric{lower}
	got := [2]map[string]*runs{{}, {}}
	err := accumulate(map[string]*runs{}, "change", sum(`{"allocs":1}`), metrics)
	if err == nil || !strings.Contains(err.Error(), "change") || !strings.Contains(err.Error(), "observed") || !strings.Contains(err.Error(), "alloc_mb") {
		t.Errorf("metric missing from the change's summary: %v", err)
	}
	if err := accumulate(got[0], "base", sum(`{"alloc_mb":80}`), metrics); err != nil {
		t.Fatal(err)
	}
	if _, err := pairUp(got, metrics); err == nil || !strings.Contains(err.Error(), "only the base") || !strings.Contains(err.Error(), "observed") {
		t.Errorf("workload only the base ran: %v", err)
	}
	if err := accumulate(got[1], "change", sum(`{"alloc_mb":56}`), metrics); err != nil {
		t.Fatal(err)
	}
	ws, err := pairUp(got, metrics)
	if err != nil {
		t.Fatal(err)
	}
	if c := ws["observed"].Metrics["alloc_mb"]; c.Base.Median != 80 || c.Change.Median != 56 {
		t.Errorf("paired medians %g -> %g, want 80 -> 56", c.Base.Median, c.Change.Median)
	}
}

// TestWallPaired: wall_s is paired after BENCHMARK.json's end-to-end
// metrics, lower reads better, a gain is claimable by the same rule, and
// no slowdown regresses it, because it has no bound.
func TestWallPaired(t *testing.T) {
	ms, err := pairedMetrics("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) < 2 || ms[len(ms)-1] != wallMetric || ms[0].Name != "setup_s" || ms[0].Bound != 0.25 {
		t.Fatalf("paired metrics %+v: want BENCHMARK.json's end-to-end list, then wall_s", ms)
	}
	base := []float64{10, 12, 11, 13, 10, 10, 12, 11, 13, 10}
	slower := []float64{100, 120, 110, 130, 100, 100, 120, 110, 130, 100}
	if c := compare(wallMetric, base, slower); c.Regressed || c.Claimable || c.Losses != 10 {
		t.Errorf("wall_s 10x slower: regressed %t, claimable %t, losses %d", c.Regressed, c.Claimable, c.Losses)
	}
	if c := compare(wallMetric, base, []float64{5, 6, 5, 6, 5, 5, 6, 5, 6, 5}); !c.Claimable || c.Regressed {
		t.Errorf("wall_s 11 -> 5: claimable %t, regressed %t", c.Claimable, c.Regressed)
	}
}
