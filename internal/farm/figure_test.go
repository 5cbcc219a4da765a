package farm

import (
	"encoding/csv"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"flexpass/internal/lake"
)

// table is one results/*.csv: a header and its data rows.
type table struct {
	header []string
	rows   [][]string
}

func readTable(t *testing.T, name string) table {
	t.Helper()
	f, err := os.Open(filepath.Join("../../results", name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return table{header: recs[0], rows: recs[1:]}
}

// where returns the rows whose named columns hold the given cells
// (col, cell, col, cell, ...); none when a column is missing.
func (tb table) where(kv ...string) [][]string {
	var out [][]string
	for _, r := range tb.rows {
		ok := true
		for i := 0; i < len(kv); i += 2 {
			c := slices.Index(tb.header, kv[i])
			ok = ok && c >= 0 && r[c] == kv[i+1]
		}
		if ok {
			out = append(out, r)
		}
	}
	return out
}

// num is column col of the one row where kv selects, as a number; NaN
// when no row or no column matches, which fails every comparison.
func (tb table) num(col string, kv ...string) float64 {
	rows, c := tb.where(kv...), slices.Index(tb.header, col)
	if len(rows) != 1 || c < 0 {
		return math.NaN()
	}
	v, err := strconv.ParseFloat(rows[0][c], 64)
	if err != nil {
		return math.NaN()
	}
	return v
}

// mean is column col's average over the rows after the first skip; NaN
// when the column is missing.
func (tb table) mean(col string, skip int) float64 {
	c := slices.Index(tb.header, col)
	if c < 0 || len(tb.rows) <= skip {
		return math.NaN()
	}
	var sum float64
	for _, r := range tb.rows[skip:] {
		v, err := strconv.ParseFloat(r[c], 64)
		if err != nil {
			return math.NaN()
		}
		sum += v
	}
	return sum / float64(len(tb.rows)-skip)
}

// queryOf reads a deployment figure's lake query back from its CSV
// header: plain columns are the group-by, "fn(col)" the aggregates.
func queryOf(header []string) lake.Query {
	var q lake.Query
	for _, h := range header {
		if fn, col, ok := strings.Cut(h, "("); ok {
			q.Aggs = append(q.Aggs, lake.Agg{Col: strings.TrimSuffix(col, ")"), Fn: fn})
		} else {
			q.GroupBy = append(q.GroupBy, h)
		}
	}
	return q
}

// TestLakeRowsReproduceFig10 runs two points of ci/figures/fig10.json
// through the farm and holds the query results/fig10_12_13.csv is the
// output of, read back from the CSV's header, to that CSV's rows for
// the same points, cell for cell.
func TestLakeRowsReproduceFig10(t *testing.T) {
	s, err := ParseSpecFile("../../ci/figures/fig10.json")
	if err != nil {
		t.Fatal(err)
	}
	all, err := s.Points()
	if err != nil {
		t.Fatal(err)
	}
	pts := slices.DeleteFunc(all, func(p Point) bool {
		return !(p.Scheme == "flexpass" && p.Deployment == 0.5 || p.Scheme == "naive" && p.Deployment == 1)
	})
	dir := t.TempDir()
	if rep, err := Execute(pts, dir, Options{Workers: 2}); err != nil || rep.Ran != 2 {
		t.Fatalf("sweep: %+v, %v", rep, err)
	}
	ix, err := lake.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	fig := readTable(t, "fig10_12_13.csv")
	q := queryOf(fig.header)
	got, err := ix.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Header, fig.header) || len(got.Rows) != 2 {
		t.Fatalf("query gave %v with %d rows", got.Header, len(got.Rows))
	}
	for _, row := range got.Rows {
		var kv []string
		for i, g := range q.GroupBy {
			kv = append(kv, g, row[i])
		}
		if want := fig.where(kv...); len(want) != 1 || !slices.Equal(row, want[0]) {
			t.Errorf("lake row %v; results/fig10_12_13.csv has %v", row, want)
		}
	}
}

// TestFigureSpecs holds every checked-in figure spec to its point count
// and runs one point of each, shortened, through farm.Execute: none may
// fail, the testbed's long flows must still be running and every other
// flow must complete, and Fig 17's point lands its threshold and Q1
// statistics in the lake.
func TestFigureSpecs(t *testing.T) {
	want := map[string]int{
		"fig1a.json": 1, "fig1b.json": 1, "fig7.json": 2, "fig8.json": 72, "fig9.json": 2,
		"fig5a.json": 8, "fig5b.json": 10, "fig10.json": 20, "fig11.json": 20,
		"fig14.json": 30, "fig15.json": 80, "fig17.json": 4, "fig18.json": 25,
		"ablations.json": 3, "ablations-schemes.json": 2,
		"paper/fig10.json": 60, "paper/fig11.json": 60,
	}
	const root = "../../ci/figures"
	paths, err := filepath.Glob(root + "/*.json")
	if err != nil {
		t.Fatal(err)
	}
	paper, err := filepath.Glob(root + "/paper/*.json")
	if err != nil {
		t.Fatal(err)
	}
	var short []Point
	for _, path := range append(paths, paper...) {
		rel, _ := filepath.Rel(root, path)
		s, err := ParseSpecFile(path)
		if err != nil {
			t.Fatal(err)
		}
		pts, err := s.Points()
		if err != nil {
			t.Fatal(err)
		}
		if n, ok := want[rel]; !ok || len(pts) != n {
			t.Errorf("%s: %d points, want %d", rel, len(pts), n)
		}
		delete(want, rel)
		p := pts[len(pts)-1]
		p.DurationMS, p.DrainMS = 1, 30
		short = append(short, p)
	}
	for rel := range want {
		t.Errorf("ci/figures/%s is missing", rel)
	}

	dir := t.TempDir()
	rep, err := Execute(short, dir, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Failures {
		t.Errorf("%s: %s", f.Label, f.Error)
	}
	ix, err := lake.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	long := map[string]bool{"fig1a": true, "fig1b": true, "fig7": true, "fig9": true}
	fig17 := false
	for _, r := range ix.Rows {
		done := r.Flows // every flow completes, but a testbed long flow outlasts the shortened run
		if long[r.Sweep] {
			done = 0
		}
		if r.Flows == 0 || r.Completed != done {
			t.Errorf("%s %s dep=%g: %d of %d flows completed", r.Sweep, r.Scheme, r.Deploy, r.Completed, r.Flows)
		}
		if r.Sweep == "fig17" {
			fig17 = r.RedKB == 200 && r.Q1AvgB > 0
		}
	}
	if !fig17 {
		t.Error("fig17's point carries no red_kb or Q1 statistics into the lake")
	}
}

// TestDegradationSpec runs two schemes of examples/sweeps/degradation.json
// (clean and under the flap plan, drain shortened) and holds the report
// query `make faults-demo` prints: one row per scheme and fault, the
// clean runs injecting nothing, the faulted ones something, and each
// pair delivering over the same flows.
func TestDegradationSpec(t *testing.T) {
	s, err := ParseSpecFile("../../examples/sweeps/degradation.json")
	if err != nil {
		t.Fatal(err)
	}
	all, err := s.Points()
	if err != nil {
		t.Fatal(err)
	}
	pts := slices.DeleteFunc(all, func(p Point) bool { return p.Scheme != "flexpass" && p.Scheme != "naive" })
	for i := range pts {
		pts[i].DrainMS = 30
	}
	dir := t.TempDir()
	if rep, err := Execute(pts, dir, Options{Workers: 2}); err != nil || rep.Ran != 4 {
		t.Fatalf("sweep: %+v, %v", rep, err)
	}
	ix, err := lake.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	aggs, err := lake.ParseAggs("goodput_gbps,flows,completed,fault_drops,last_finish_us")
	if err != nil {
		t.Fatal(err)
	}
	tab, err := ix.Run(lake.Query{GroupBy: []string{"scheme", "fault"}, Aggs: aggs})
	if err != nil {
		t.Fatal(err)
	}
	got := table{header: tab.Header, rows: tab.Rows}
	if len(got.rows) != 4 {
		t.Fatalf("report has %d rows, want 4: %v", len(got.rows), got.rows)
	}
	for _, sch := range []string{"flexpass", "naive"} {
		clean, faulted := []string{"scheme", sch, "fault", ""}, []string{"scheme", sch, "fault", "flap-and-recover"}
		if d := got.num("mean(fault_drops)", clean...); d != 0 {
			t.Errorf("%s: the clean run injected %g drops", sch, d)
		}
		if d := got.num("mean(fault_drops)", faulted...); !(d > 0) {
			t.Errorf("%s: the faulted run injected %g drops", sch, d)
		}
		for _, kv := range [][]string{clean, faulted} {
			if g, done := got.num("mean(goodput_gbps)", kv...), got.num("mean(last_finish_us)", kv...); !(g > 0 && done > 0) {
				t.Errorf("%s %v: goodput %g Gb/s, last completion %gus", sch, kv[3], g, done)
			}
		}
		if n, m := got.num("mean(flows)", clean...), got.num("mean(flows)", faulted...); n != m || !(n > 0) {
			t.Errorf("%s: clean and faulted runs saw %g and %g flows", sch, n, m)
		}
	}
}

// figureShapes checks the paper's orderings on the checked-in figure
// CSVs and returns every claim that does not hold.
func figureShapes(read func(string) table) []string {
	var bad []string
	claim := func(ok bool, format string, args ...any) {
		if !ok {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
	}

	// Fig 10: FlexPass leaves the legacy tail within 1.5x of all-DCTCP
	// during the rollout, naive does not; FlexPass's upgraded tail beats
	// its legacy tail at 50%, and fully deployed it beats the baseline
	// tail without losing more than a quarter of its average FCT.
	f10 := read("fig10_12_13.csv")
	base := f10.num("mean(p99_small_us)", "scheme", "naive", "deployment", "0")
	for _, dep := range []string{"0.25", "0.5", "0.75"} {
		legacy := f10.num("mean(p99_small_legacy_us)", "scheme", "flexpass", "deployment", dep)
		claim(legacy <= 1.5*base, "fig10: flexpass legacy p99 %.1fus at %s, over 1.5x the baseline %.1fus", legacy, dep, base)
	}
	naive := f10.num("mean(p99_small_legacy_us)", "scheme", "naive", "deployment", "0.5")
	claim(naive > 1.5*base, "fig10: naive legacy p99 %.1fus at 0.5, within 1.5x the baseline %.1fus", naive, base)
	fpNew, fpLegacy := f10.num("mean(p99_small_new_us)", "scheme", "flexpass", "deployment", "0.5"), f10.num("mean(p99_small_legacy_us)", "scheme", "flexpass", "deployment", "0.5")
	claim(fpNew < fpLegacy, "fig10: flexpass upgraded p99 %.1fus at 0.5, not under its legacy p99 %.1fus", fpNew, fpLegacy)
	full := f10.num("mean(p99_small_us)", "scheme", "flexpass", "deployment", "1")
	claim(full < base, "fig10: flexpass p99 %.1fus at full deployment, not under the baseline %.1fus", full, base)
	avgFull, avg0 := f10.num("mean(avg_fct_us)", "scheme", "flexpass", "deployment", "1"), f10.num("mean(avg_fct_us)", "scheme", "flexpass", "deployment", "0")
	claim(avgFull <= 1.25*avg0, "fig10: flexpass avg FCT %.1fus at full deployment, over 1.25x its %.1fus at 0", avgFull, avg0)

	// Fig 1: beside a credit transport, DCTCP starves — one naive
	// ExpressPass flow on a full 10G bottleneck (a), 16 HOMA flows (b).
	f1a := read("fig1a.csv")
	xp, dc := f1a.mean("ExpressPass", 5), f1a.mean("DCTCP", 5)
	claim(xp+dc >= 7 && dc/(xp+dc) <= 0.25, "fig1a: expresspass %.2f + dctcp %.2f Gb/s, want >= 7 with dctcp <= 25%%", xp, dc)
	f1b := read("fig1b.csv")
	ho, dc := f1b.mean("HOMA", 5), f1b.mean("DCTCP", 5)
	claim(ho+dc > 0 && dc/(ho+dc) <= 0.3, "fig1b: homa %.2f, dctcp %.2f Gb/s, want dctcp <= 30%%", ho, dc)

	// Fig 7: a lone FlexPass flow fills the link, proactive about half
	// (a); beside DCTCP each gets about half and the reactive sub-flow
	// yields (c).
	f7a := read("fig7a.csv")
	pro, re := f7a.mean("Proactive", 5), f7a.mean("Reactive", 5)
	claim(pro+re >= 8 && pro/(pro+re) >= 0.35 && pro/(pro+re) <= 0.65,
		"fig7a: proactive %.2f + reactive %.2f Gb/s, want >= 8 with proactive 35-65%%", pro, re)
	f7c := read("fig7c.csv")
	dc, pro, re = f7c.mean("DCTCP", 5), f7c.mean("Proactive", 5), f7c.mean("Reactive", 5)
	claim(dc/(dc+pro+re) >= 0.35 && dc/(dc+pro+re) <= 0.65 && re/(pro+re) <= 0.35,
		"fig7c: dctcp %.2f, proactive %.2f, reactive %.2f Gb/s, want dctcp 35-65%% and reactive <= 35%% of flexpass", dc, pro, re)

	// Fig 8: credit-scheduled transports never time out in incast;
	// DCTCP does, and at 64 flows its tail is FlexPass's worse.
	f8 := read("fig8.csv")
	tc, xc := slices.Index(f8.header, "sum(timeouts)"), slices.Index(f8.header, "scheme")
	claim(tc >= 0 && xc >= 0, "fig8: no scheme and sum(timeouts) columns in %v", f8.header)
	timeouts := map[string]int{}
	for _, r := range f8.rows {
		if tc < 0 || xc < 0 {
			break
		}
		n, err := strconv.Atoi(r[tc])
		claim(err == nil, "fig8: bad timeouts cell in %v", r)
		timeouts[r[xc]] += n
	}
	claim(timeouts["flexpass"] == 0 && timeouts["expresspass"] == 0,
		"fig8: flexpass %d and expresspass %d timeouts, want 0", timeouts["flexpass"], timeouts["expresspass"])
	claim(f8.num("sum(timeouts)", "flows", "64", "scheme", "dctcp") > 0, "fig8: dctcp never timed out at 64 flows")
	fpMax, dcMax := f8.num("max(fct_max_us)", "flows", "64", "scheme", "flexpass"), f8.num("max(fct_max_us)", "flows", "64", "scheme", "dctcp")
	claim(fpMax < dcMax, "fig8: at 64 flows flexpass's slowest flow %.0fus, not under dctcp's %.0fus", fpMax, dcMax)

	// Fig 9c: DCTCP starves beside ExpressPass, not beside FlexPass.
	f9 := read("fig9c.csv")
	xs := f9.num("mean(legacy_starved_frac)", "scheme", "naive")
	fs := f9.num("mean(legacy_starved_frac)", "scheme", "flexpass")
	claim(xs >= 0.5, "fig9c: dctcp starved %.2f beside expresspass, want most of the time", xs)
	claim(fs <= 0.1, "fig9c: dctcp starved %.2f beside flexpass, want ~0", fs)

	// Fig 18: at every w_q the legacy tail degrades at most 19% during
	// the rollout (the paper's bound at w_q = 0.5).
	f18 := read("fig18.csv")
	for _, wq := range []string{"0.4", "0.45", "0.5", "0.55", "0.6"} {
		base0 := f18.num("mean(p99_small_legacy_us)", "wq", wq, "deployment", "0")
		worst := 0.0 // a missing cell is NaN, and max keeps it
		for _, dep := range []string{"0.25", "0.5", "0.75"} {
			leg := f18.num("mean(p99_small_legacy_us)", "wq", wq, "deployment", dep)
			worst = max(worst, (leg-base0)/base0)
		}
		claim(worst <= 0.19, "fig18: w_q %s degrades the legacy tail by %.4f, over 0.19", wq, worst)
	}

	// Fig 11: pinned as measured, not as the paper has it (DESIGN.md §5):
	// FlexPass fully deployed times out 1 080 times and its small-flow
	// tail is 4 848us against naive's 994us.
	f11 := read("fig11.csv")
	to := f11.num("mean(timeouts)", "scheme", "flexpass", "deployment", "1")
	fpTail := f11.num("mean(p99_small_us)", "scheme", "flexpass", "deployment", "1")
	nvTail := f11.num("mean(p99_small_us)", "scheme", "naive", "deployment", "1")
	claim(to == 1080 && math.Round(fpTail) == 4848 && math.Round(nvTail) == 994,
		"fig11: flexpass at full deployment %g timeouts, p99 %.1fus vs naive %.1fus; pinned 1080, 4848us, 994us", to, fpTail, nvTail)
	return bad
}

// TestFigureShapes asserts the paper's orderings on the figures as
// checked in, without simulating, and checks that it notices a tampered
// cell in each figure it reads.
func TestFigureShapes(t *testing.T) {
	read := func(name string) table { return readTable(t, name) }
	for _, b := range figureShapes(read) {
		t.Error(b)
	}
	// A tampered cell is the cell of col in each row starting with cell
	// (every row when cell is ""), made 10v+10.
	for _, tamper := range []struct{ file, col, cell string }{
		{"fig1a.csv", "DCTCP", ""},
		{"fig1b.csv", "DCTCP", ""},
		{"fig7a.csv", "Reactive", ""},
		{"fig7c.csv", "Reactive", ""},
		{"fig10_12_13.csv", "mean(p99_small_us)", "flexpass,1"},
		{"fig10_12_13.csv", "mean(p99_small_new_us)", "flexpass,0.5"},
		{"fig10_12_13.csv", "mean(avg_fct_us)", "flexpass,1"},
		{"fig8.csv", "sum(timeouts)", "64,flexpass"},
		{"fig9c.csv", "mean(legacy_starved_frac)", "flexpass"},
		{"fig18.csv", "mean(p99_small_legacy_us)", "0.5,0.5"},
		{"fig11.csv", "mean(timeouts)", "flexpass,1"},
	} {
		forged := func(name string) table {
			tb := readTable(t, name)
			if name != tamper.file {
				return tb
			}
			c := slices.Index(tb.header, tamper.col)
			for _, r := range tb.rows {
				if tamper.cell == "" || strings.HasPrefix(strings.Join(r, ","), tamper.cell+",") {
					v, _ := strconv.ParseFloat(r[c], 64)
					r[c] = strconv.FormatFloat(10*v+10, 'f', -1, 64)
				}
			}
			return tb
		}
		if len(figureShapes(forged)) == 0 {
			t.Errorf("a tampered %s %s %s passes the shape checks", tamper.file, tamper.cell, tamper.col)
		}
	}
}
