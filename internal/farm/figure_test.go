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
// fail or leave a flow incomplete, and Fig 17's point lands its
// threshold and Q1 statistics in the lake.
func TestFigureSpecs(t *testing.T) {
	want := map[string]int{
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
	fig17 := false
	for _, r := range ix.Rows {
		if r.Flows == 0 || r.Completed != r.Flows {
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
	// during the rollout, naive does not, and FlexPass fully deployed
	// beats the baseline.
	f10 := read("fig10_12_13.csv")
	base := f10.num("mean(p99_small_us)", "scheme", "naive", "deployment", "0")
	for _, dep := range []string{"0.25", "0.5", "0.75"} {
		legacy := f10.num("mean(p99_small_legacy_us)", "scheme", "flexpass", "deployment", dep)
		claim(legacy <= 1.5*base, "fig10: flexpass legacy p99 %.1fus at %s, over 1.5x the baseline %.1fus", legacy, dep, base)
	}
	naive := f10.num("mean(p99_small_legacy_us)", "scheme", "naive", "deployment", "0.5")
	claim(naive > 1.5*base, "fig10: naive legacy p99 %.1fus at 0.5, within 1.5x the baseline %.1fus", naive, base)
	full := f10.num("mean(p99_small_us)", "scheme", "flexpass", "deployment", "1")
	claim(full < base, "fig10: flexpass p99 %.1fus at full deployment, not under the baseline %.1fus", full, base)

	// Fig 8: credit-scheduled transports never time out in incast;
	// DCTCP does.
	f8 := read("fig8.csv")
	tc, xc := slices.Index(f8.header, "timeouts"), slices.Index(f8.header, "transport")
	claim(tc >= 0 && xc >= 0, "fig8: no transport and timeouts columns in %v", f8.header)
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
	claim(timeouts["dctcp"] > 0, "fig8: dctcp never timed out")

	// Fig 9c: DCTCP starves beside ExpressPass, not beside FlexPass.
	f9 := read("fig9c.csv")
	xp := f9.num("dctcp_starved_frac", "scheme", "expresspass")
	fp := f9.num("dctcp_starved_frac", "scheme", "flexpass")
	claim(xp >= 0.5, "fig9c: dctcp starved %.2f beside expresspass, want most of the time", xp)
	claim(fp <= 0.1, "fig9c: dctcp starved %.2f beside flexpass, want ~0", fp)

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
	for _, tamper := range []struct{ file, col, cell string }{
		{"fig10_12_13.csv", "mean(p99_small_us)", "flexpass,1"},
		{"fig8.csv", "timeouts", "64,flexpass"},
		{"fig9c.csv", "dctcp_starved_frac", "flexpass"},
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
				if strings.HasPrefix(strings.Join(r, ","), tamper.cell+",") {
					v, _ := strconv.ParseFloat(r[c], 64)
					r[c] = strconv.FormatFloat(10*v+1, 'f', -1, 64)
				}
			}
			return tb
		}
		if len(figureShapes(forged)) == 0 {
			t.Errorf("a tampered %s %s %s passes the shape checks", tamper.file, tamper.cell, tamper.col)
		}
	}
}
