package lake

import (
	"strings"
	"testing"
)

func testIndex() *Index {
	return &Index{Rows: []Row{
		{ID: "a1", Scheme: "flexpass", Topo: "small", Workload: "websearch", Load: 0.4, Seed: 1, GoodputGbps: 2.0, FCTP99Us: 100, DropsTotal: 5},
		{ID: "a2", Scheme: "flexpass", Topo: "small", Workload: "websearch", Load: 0.8, Seed: 1, GoodputGbps: 4.0, FCTP99Us: 300, DropsTotal: 9},
		{ID: "b1", Scheme: "dctcp", Topo: "small", Workload: "websearch", Load: 0.4, Seed: 1, GoodputGbps: 1.0, FCTP99Us: 200, DropsTotal: 1},
		{ID: "b2", Scheme: "dctcp", Topo: "small", Workload: "websearch", Load: 0.8, Seed: 1, GoodputGbps: 3.0, FCTP99Us: 600, DropsTotal: 3, Salvaged: true},
	}}
}

func TestParseCond(t *testing.T) {
	for in, want := range map[string]Cond{
		"scheme=flexpass": {Col: "scheme", Op: OpEq, Arg: "flexpass"},
		"scheme!=dctcp":   {Col: "scheme", Op: OpNe, Arg: "dctcp"},
		"load<=0.5":       {Col: "load", Op: OpLe, Arg: "0.5"},
		"load >= 0.5":     {Col: "load", Op: OpGe, Arg: "0.5"},
		"seed<3":          {Col: "seed", Op: OpLt, Arg: "3"},
	} {
		got, err := ParseCond(in)
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if got != want {
			t.Errorf("%q: got %+v, want %+v", in, got, want)
		}
	}
	if _, err := ParseCond("noseparator"); err == nil {
		t.Error("bad condition parsed")
	}
}

func TestCondGlobAndNumeric(t *testing.T) {
	r := &Row{Scheme: "flexpass", Load: 0.8, Salvaged: true}
	cases := []struct {
		cond string
		want bool
	}{
		{"scheme=flex*", true},
		{"scheme=dc*", false},
		{"scheme!=dc*", true},
		{"load>0.5", true},
		{"load<=0.5", false},
		{"salvaged=true", true},
		{"salvaged=false", false},
	}
	for _, c := range cases {
		cond, err := ParseCond(c.cond)
		if err != nil {
			t.Fatal(err)
		}
		if got := cond.Match(r); got != c.want {
			t.Errorf("%q matched %v, want %v", c.cond, got, c.want)
		}
	}
}

// TestQueryGroupAggregate exercises the paper-figure shape: p99 FCT and
// goodput by scheme × load.
func TestQueryGroupAggregate(t *testing.T) {
	ix := testIndex()
	aggs, err := ParseAggs("fct_p99_us:mean,goodput_gbps:sum,count")
	if err != nil {
		t.Fatal(err)
	}
	tab, err := ix.Run(Query{GroupBy: []string{"scheme", "load"}, Aggs: aggs})
	if err != nil {
		t.Fatal(err)
	}
	wantHeader := []string{"scheme", "load", "mean(fct_p99_us)", "sum(goodput_gbps)", "count"}
	if strings.Join(tab.Header, ",") != strings.Join(wantHeader, ",") {
		t.Fatalf("header %v", tab.Header)
	}
	want := map[string]string{
		"dctcp|0.4":    "200|1|1",
		"dctcp|0.8":    "600|3|1",
		"flexpass|0.4": "100|2|1",
		"flexpass|0.8": "300|4|1",
	}
	if len(tab.Rows) != len(want) {
		t.Fatalf("got %d groups: %v", len(tab.Rows), tab.Rows)
	}
	for _, row := range tab.Rows {
		key := row[0] + "|" + row[1]
		if got := strings.Join(row[2:], "|"); got != want[key] {
			t.Errorf("group %s: got %s, want %s", key, got, want[key])
		}
	}
}

// TestQueryGroupsSortByValue: an int group key orders by value, not as a
// string ("50" after "200"), ahead of the string key after it.
func TestQueryGroupsSortByValue(t *testing.T) {
	ix := &Index{}
	for _, kb := range []int64{200, 50, 150, 100} {
		for _, s := range []string{"naive", "flexpass"} {
			ix.Rows = append(ix.Rows, Row{Scheme: s, RedKB: kb})
		}
	}
	tab, err := ix.Run(Query{GroupBy: []string{"red_kb", "scheme"}})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range tab.Rows {
		got = append(got, r[0]+"/"+r[1])
	}
	want := "50/flexpass 50/naive 100/flexpass 100/naive 150/flexpass 150/naive 200/flexpass 200/naive"
	if strings.Join(got, " ") != want {
		t.Errorf("groups in order %v, want %s", got, want)
	}
}

func TestQueryWhereFilters(t *testing.T) {
	ix := testIndex()
	tab, err := ix.Run(Query{
		Where: []Cond{{Col: "salvaged", Op: OpEq, Arg: "false"}, {Col: "scheme", Op: OpEq, Arg: "dctcp"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// One dctcp row survives the salvaged filter; default agg is count.
	if len(tab.Rows) != 1 || tab.Rows[0][0] != "1" {
		t.Fatalf("rows: %v", tab.Rows)
	}
}

func TestQueryRejectsUnknownColumns(t *testing.T) {
	ix := testIndex()
	if _, err := ix.Run(Query{GroupBy: []string{"nope"}}); err == nil {
		t.Error("unknown group-by accepted")
	}
	if _, err := ix.Run(Query{Where: []Cond{{Col: "nope", Op: OpEq, Arg: "x"}}}); err == nil {
		t.Error("unknown filter column accepted")
	}
	if _, err := ix.Run(Query{Aggs: []Agg{{Col: "nope", Fn: "mean"}}}); err == nil {
		t.Error("unknown aggregate column accepted")
	}
	if _, err := ParseAggs("goodput_gbps:median"); err == nil {
		t.Error("unknown aggregate function accepted")
	}
}

func TestQueryPercentileAgg(t *testing.T) {
	ix := &Index{}
	for i := 1; i <= 100; i++ {
		ix.Rows = append(ix.Rows, Row{Scheme: "s", FCTP99Us: float64(i)})
	}
	tab, err := ix.Run(Query{Aggs: []Agg{{Col: "fct_p99_us", Fn: "p50"}, {Col: "fct_p99_us", Fn: "p99"}}})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows[0][0] != "51" || tab.Rows[0][1] != "100" {
		t.Errorf("percentiles: %v", tab.Rows[0])
	}
}

func TestDiffCleanOnIdenticalLakes(t *testing.T) {
	rep, err := Diff(testIndex(), testIndex(), Tolerance{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || rep.Matched != 4 || rep.Drifted != 0 {
		t.Fatalf("identical lakes not clean: %+v", rep)
	}
}

// TestDiffFlagsInjectedRegression: a goodput drop beyond tolerance must
// drift; within tolerance it must not.
func TestDiffFlagsInjectedRegression(t *testing.T) {
	base := testIndex()
	cand := testIndex()
	cand.Rows[0].GoodputGbps *= 0.8 // -20%

	rep, err := Diff(base, cand, Tolerance{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() || rep.Drifted != 1 {
		t.Fatalf("zero-tolerance diff missed the regression: %+v", rep)
	}
	var found bool
	for _, rd := range rep.Rows {
		if !rd.Drifted {
			continue
		}
		for _, md := range rd.Deltas {
			if md.Metric == "goodput_gbps" && md.Drifted {
				found = true
				if md.DeltaPct > -19.9 || md.DeltaPct < -20.1 {
					t.Errorf("delta pct = %g, want -20", md.DeltaPct)
				}
			}
		}
	}
	if !found {
		t.Error("goodput_gbps not reported as the drifting metric")
	}

	// The same regression inside a generous tolerance is clean.
	rep, err = Diff(base, cand, Tolerance{Pct: 25}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("25%% tolerance still drifted: %+v", rep)
	}
}

func TestDiffPerfMetricsNeverGate(t *testing.T) {
	base := testIndex()
	cand := testIndex()
	cand.Rows[0].WallMS = 999
	cand.Rows[0].EventsPerSec = 1
	rep, err := Diff(base, cand, Tolerance{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("perf-only delta gated the diff: %+v", rep)
	}
	// But the delta is still reported for context.
	if len(rep.Rows) != 1 || len(rep.Rows[0].Deltas) == 0 {
		t.Fatalf("perf delta not reported: %+v", rep.Rows)
	}
}

func TestDiffMissingRows(t *testing.T) {
	base := testIndex()
	cand := testIndex()
	cand.Rows = cand.Rows[:3] // drop one baseline scenario

	rep, err := Diff(base, cand, Tolerance{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() || len(rep.MissingCandidate) != 1 {
		t.Fatalf("missing candidate scenario not flagged: %+v", rep)
	}

	// Candidate-only scenarios are additions, not regressions.
	cand = testIndex()
	cand.Rows = append(cand.Rows, Row{ID: "new", Scheme: "swift", Topo: "small", Workload: "websearch", Load: 0.4, Seed: 9})
	rep, err = Diff(base, cand, Tolerance{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || len(rep.MissingBaseline) != 1 {
		t.Fatalf("candidate-only scenario handling: %+v", rep)
	}
}

// TestDiffKeysOnShards: one scenario at two shard counts is two rows —
// they must match themselves, not collide on one key.
func TestDiffKeysOnShards(t *testing.T) {
	idx := testIndex()
	sharded := idx.Rows[0]
	sharded.ID, sharded.Shards, sharded.GoodputGbps = "a1s2", 2, 2.5
	idx.Rows = append(idx.Rows, sharded)
	rep, err := Diff(idx, idx, Tolerance{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || rep.Matched != 5 {
		t.Fatalf("self-diff of a two-shard-count lake: matched %d drifted %d", rep.Matched, rep.Drifted)
	}
	if l := rowLabel(&sharded); !strings.Contains(l, "shards=2") {
		t.Errorf("sharded row label %q does not name its shard count", l)
	}
}

// TestBaselineShardInvariant is the lake's oracle for shard-count
// invariance: in the checked-in CI baseline, every pair of rows that
// differ only in shards agrees on every gated metric but events (a
// sharded run adds its cross-shard injections and second arrivals).
func TestBaselineShardInvariant(t *testing.T) {
	ix, err := ReadFile("../../ci/lake-baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	first := map[string]*Row{}
	pairs := 0
	for i := range ix.Rows {
		r := &ix.Rows[i]
		unsharded := *r
		unsharded.Shards = 0
		key := rowKey(&unsharded)
		base, ok := first[key]
		if !ok {
			first[key] = r
			continue
		}
		pairs++
		for _, m := range DiffMetrics {
			if m == "events" {
				continue
			}
			_, a, _, _ := value(base, m)
			_, b, _, _ := value(r, m)
			if a != b {
				t.Errorf("%s: %s is %v at shards %d, %v at shards %d", rowLabel(&unsharded), m, a, base.Shards, b, r.Shards)
			}
		}
	}
	if pairs == 0 || 2*pairs != len(ix.Rows) {
		t.Fatalf("%d shard pairs among %d rows; the baseline should hold every point at two shard counts", pairs, len(ix.Rows))
	}
}

func TestDiffRejectsUnknownMetric(t *testing.T) {
	if _, err := Diff(testIndex(), testIndex(), Tolerance{}, []string{"nope"}); err == nil {
		t.Error("unknown diff metric accepted")
	}
}

func TestBenchTableFilters(t *testing.T) {
	ix := &Index{Bench: []BenchRow{
		{Source: "a.json", Bench: "EngineDispatch", Metric: "ns/op", Value: 100},
		{Source: "a.json", Bench: "EngineDispatch", Metric: "allocs/op", Value: 0},
		{Source: "a.json", Bench: "PacketPool", Metric: "ns/op", Value: 50},
	}}
	tab := ix.BenchTable("EngineDispatch", "ns/op")
	if len(tab.Rows) != 1 {
		t.Fatalf("filter returned %d rows", len(tab.Rows))
	}
	tab = ix.BenchTable("", "")
	if len(tab.Rows) != 3 {
		t.Fatalf("unfiltered returned %d rows", len(tab.Rows))
	}
}
