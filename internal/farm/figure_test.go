package farm

import (
	"context"
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"flexpass/internal/harness"
	"flexpass/internal/lake"
)

// TestLakeRowsReproduceFig10 runs two Fig 10 points through the farm and
// holds each lake row's per-flow columns to the figure pipeline: equal to
// RunPoint's DeploymentPoint for the same scenario, and to the checked-in
// results/fig10_12_13.csv to the printed digit.
func TestLakeRowsReproduceFig10(t *testing.T) {
	fig := readFigure(t, "../../results/fig10_12_13.csv")
	var pts []Point
	for _, p := range []struct {
		scheme string
		dep    float64
	}{{"flexpass", 0.5}, {"naive", 1.0}} {
		pts = append(pts, Point{Sweep: "fig10", Scheme: p.scheme, Topo: "small", Workload: "websearch",
			Load: 0.5, Deployment: p.dep, WQ: 0.5, Seed: 1, DurationMS: 15, DrainMS: 60})
	}
	dir := t.TempDir()
	if rep, err := Execute(pts, dir, Options{Workers: 2}); err != nil || rep.Ran != len(pts) {
		t.Fatalf("sweep: %+v, %v", rep, err)
	}
	ix, err := lake.ReadFile(filepath.Join(dir, lake.IndexFile))
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]lake.Row{}
	for _, r := range ix.Rows {
		rows[r.ID] = r
	}
	points := make([]harness.DeploymentPoint, len(pts))
	harness.Each(context.Background(), 2, len(pts), func(_, i int) { points[i] = harness.RunPoint(pts[i].Scenario()) })

	for i, p := range pts {
		row, ok := rows[p.Hash()]
		if !ok {
			t.Fatalf("%s: no lake row", p.Label())
		}
		pt := points[i]
		want := fig[fmt.Sprintf("%s,%.2f", p.Scheme, p.Deployment)]
		for j, c := range []struct {
			col  string
			lake float64
			run  float64
		}{
			{"p99_small_us", row.P99SmallUs, pt.P99Small.Micros()},
			{"avg_fct_us", row.AvgFCTUs, pt.AvgAll.Micros()},
			{"p99_small_legacy_us", row.P99SmallLegacyUs, pt.P99SmallLegacy.Micros()},
			{"p99_small_new_us", row.P99SmallNewUs, pt.P99SmallNew.Micros()},
			{"std_small_legacy_us", row.StdSmallLegacyUs, pt.StdSmallLegacy.Micros()},
			{"std_small_new_us", row.StdSmallNewUs, pt.StdSmallNew.Micros()},
		} {
			if c.lake != c.run {
				t.Errorf("%s %s: lake %v, RunPoint %v", p.Label(), c.col, c.lake, c.run)
			}
			// The figure's columns 5-10, in this order, printed to 0.1 us.
			if got := fmt.Sprintf("%.1f", c.lake); got != want[5+j] {
				t.Errorf("%s %s: lake %s, results/fig10_12_13.csv %s", p.Label(), c.col, got, want[5+j])
			}
		}
	}
}

// readFigure loads a deployment-figure CSV keyed by "scheme,deployment".
func readFigure(t *testing.T, path string) map[string][]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]string{}
	for _, r := range recs[1:] {
		out[r[0]+","+r[1]] = r
	}
	return out
}
