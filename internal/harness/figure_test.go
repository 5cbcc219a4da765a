package harness_test

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"flexpass/internal/farm"
	"flexpass/internal/lake"
)

// The testbed figures' claims (Figs 1, 7, 8, 9), simulated: each test runs
// points of the figure's checked-in sweep spec under ci/figures/ through
// the farm — shortened to durMS of traffic where the claim holds sooner —
// and reads them back through the lake queries `make figs` writes
// results/*.csv with.

// sweep runs the points of ci/figures/<name>.json that keep selects, at
// durMS of traffic (0 keeps the spec's), into a fresh lake, and returns
// its index and directory.
func sweep(t *testing.T, name string, durMS float64, keep func(farm.Point) bool) (*lake.Index, string) {
	t.Helper()
	s, err := farm.ParseSpecFile("../../ci/figures/" + name + ".json")
	if err != nil {
		t.Fatal(err)
	}
	all, err := s.Points()
	if err != nil {
		t.Fatal(err)
	}
	pts := slices.DeleteFunc(all, func(p farm.Point) bool { return !keep(p) })
	if len(pts) == 0 {
		t.Fatalf("%s: no point selected", name)
	}
	for i := range pts {
		if durMS > 0 {
			pts[i].DurationMS = durMS
		}
	}
	dir := t.TempDir()
	rep, err := farm.Execute(pts, dir, farm.Options{Workers: 2})
	if err != nil || rep.Ran != len(pts) || len(rep.Failures) != 0 {
		t.Fatalf("%s sweep: %+v, %v", name, rep, err)
	}
	ix, err := lake.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	return ix, dir
}

func all(farm.Point) bool { return true }

// seriesMeans reads the one run where selects as the throughput series
// cols name ("NAME=entity:metric,...", as `flexfarm query -series`) and
// returns each series' mean Gb/s over the 1 ms windows after the first
// skip.
func seriesMeans(t *testing.T, ix *lake.Index, dir, where, cols string, skip int) map[string]float64 {
	t.Helper()
	var conds []lake.Cond
	for _, w := range strings.Split(where, ",") {
		c, err := lake.ParseCond(w)
		if err != nil {
			t.Fatal(err)
		}
		conds = append(conds, c)
	}
	sc, err := lake.ParseSeries(cols)
	if err != nil {
		t.Fatal(err)
	}
	run, err := ix.Artifact(dir, conds)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := lake.SeriesTable(run, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) <= skip {
		t.Fatalf("%s: %d windows, want more than %d", where, len(tab.Rows), skip)
	}
	out := map[string]float64{}
	for c, name := range tab.Header[1:] {
		var sum float64
		for _, r := range tab.Rows[skip:] {
			v, err := strconv.ParseFloat(r[c+1], 64)
			if err != nil {
				t.Fatal(err)
			}
			sum += v
		}
		out[name] = sum / float64(len(tab.Rows)-skip)
	}
	return out
}

// grouped runs the query groupBy and aggs ("col:fn,...") name over ix and
// returns each aggregate cell keyed by its row's group-by cells joined
// with ",", a space, and the aggregate's label.
func grouped(t *testing.T, ix *lake.Index, groupBy []string, aggs string) map[string]float64 {
	t.Helper()
	as, err := lake.ParseAggs(aggs)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := ix.Run(lake.Query{GroupBy: groupBy, Aggs: as})
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, r := range tab.Rows {
		key := strings.Join(r[:len(groupBy)], ",")
		for i, h := range tab.Header[len(groupBy):] {
			v, err := strconv.ParseFloat(r[len(groupBy)+i], 64)
			if err != nil {
				v = math.NaN()
			}
			out[key+" "+h] = v
		}
	}
	return out
}

const fig7Sub = "Proactive=transport/flexpass:rx_bytes_pro,Reactive=transport/flexpass:rx_bytes_re"

func TestFig1aStarvationShape(t *testing.T) {
	ix, dir := sweep(t, "fig1a", 60, all)
	m := seriesMeans(t, ix, dir, "sweep=fig1a", "ExpressPass=transport/expresspass:rx_bytes,DCTCP=transport/dctcp:rx_bytes", 5)
	xp, dc := m["ExpressPass"], m["DCTCP"]
	if xp+dc < 7 {
		t.Fatalf("bottleneck underutilized: %.2f Gb/s", xp+dc)
	}
	if dc/(xp+dc) > 0.25 {
		t.Fatalf("DCTCP share %.2f; expected starvation", dc/(xp+dc))
	}
}

func TestFig1bHomaStarvationShape(t *testing.T) {
	ix, dir := sweep(t, "fig1b", 40, all)
	m := seriesMeans(t, ix, dir, "sweep=fig1b", "HOMA=transport/homa:rx_bytes,DCTCP=transport/dctcp:rx_bytes", 5)
	ho, dc := m["HOMA"], m["DCTCP"]
	if ho+dc == 0 {
		t.Fatal("no progress")
	}
	if dc/(ho+dc) > 0.3 {
		t.Fatalf("DCTCP share %.2f under 16 HOMA flows; expected starvation", dc/(ho+dc))
	}
}

func TestFig7SubflowShares(t *testing.T) {
	// (a) alone: proactive ≈ w_q, reactive grabs the rest; link ~full.
	ix, dir := sweep(t, "fig7", 40, func(p farm.Point) bool { return strings.HasSuffix(p.Workload, "fig7a.json") })
	a := seriesMeans(t, ix, dir, "sweep=fig7,workload=fig7a", fig7Sub, 5)
	pro, re := a["Proactive"], a["Reactive"]
	if pro+re < 8 {
		t.Fatalf("Fig7a total %.2f Gb/s, want ~9.5", pro+re)
	}
	if s := pro / (pro + re); s < 0.35 || s > 0.65 {
		t.Fatalf("Fig7a proactive share %.2f, want ~0.5", s)
	}
	// (c) vs DCTCP: both take ~half; reactive nearly silent.
	ix, dir = sweep(t, "fig9", 60, func(p farm.Point) bool { return p.Scheme == "flexpass" })
	c := seriesMeans(t, ix, dir, "sweep=fig9,scheme=flexpass", "DCTCP=transport/dctcp:rx_bytes,"+fig7Sub, 5)
	dc, proC, reC := c["DCTCP"], c["Proactive"], c["Reactive"]
	if s := dc / (dc + proC + reC); s < 0.35 || s > 0.65 {
		t.Fatalf("Fig7c DCTCP share %.2f, want ~0.5", s)
	}
	if s := reC / (proC + reC); s > 0.35 {
		t.Fatalf("Fig7c reactive share among sub-flows %.2f; should be small under competition", s)
	}
}

func TestFig9StarvationMetric(t *testing.T) {
	ix, _ := sweep(t, "fig9", 80, all)
	m := grouped(t, ix, []string{"scheme"}, "legacy_starved_frac")
	if s := m["naive mean(legacy_starved_frac)"]; !(s >= 0.5) {
		t.Fatalf("DCTCP starved %.0f%% of windows under naïve ExpressPass, want most", s*100)
	}
	if s := m["flexpass mean(legacy_starved_frac)"]; !(s <= 0.1) {
		t.Fatalf("DCTCP starved %.0f%% of windows under FlexPass, want ~0", s*100)
	}
}

func TestFig8IncastShape(t *testing.T) {
	ix, _ := sweep(t, "fig8", 0, func(p farm.Point) bool {
		return strings.HasSuffix(p.Workload, "/incast64.json") && p.Seed == 1
	})
	m := grouped(t, ix, []string{"scheme"}, "timeouts:sum,fct_max_us:max,flows:sum,completed:sum")
	if m["dctcp sum(timeouts)"] == 0 {
		t.Error("DCTCP should hit RTOs in a 64-way incast")
	}
	for _, sch := range []string{"flexpass", "expresspass"} {
		if n := m[sch+" sum(timeouts)"]; n != 0 {
			t.Errorf("%s hit %g timeouts, want 0", sch, n)
		}
		if done, n := m[sch+" sum(completed)"], m[sch+" sum(flows)"]; done != n || n != 64 {
			t.Errorf("%s completed %g of %g flows, want all 64", sch, done, n)
		}
	}
	if fp, dc := m["flexpass max(fct_max_us)"], m["dctcp max(fct_max_us)"]; !(fp < dc) {
		t.Errorf("FlexPass tail %.0fus not better than DCTCP %.0fus", fp, dc)
	}
}
