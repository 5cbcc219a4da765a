package lake

import (
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// TestBenchTrajectory: the checked-in BENCH_PR*.json files are one
// trajectory. Each ingests strictly and is a bench-pair report, but for
// PR 8's ledger, and observed alloc_mb reads in time order with its
// revisions. The old baseline/current compare shape and a misspelled
// report field are refused, and an index.json written before bench rows
// carried a revision still loads.
func TestBenchTrajectory(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_PR*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no BENCH_PR*.json at the repo root (%v)", err)
	}
	ix := &Index{}
	for _, p := range paths {
		if _, err := ix.IngestBenchFile(p); err != nil {
			t.Error(err)
		}
	}
	ix.Sort()
	var got [][]string
	for _, r := range ix.Bench {
		if r.Side == "" && r.Source != "BENCH_PR8.json" {
			t.Fatalf("%s is a one-sided ledger; a comparison is stored as a bench-pair report", r.Source)
		}
		if r.Bench == "observed" && r.Metric == "alloc_mb" {
			got = append(got, []string{r.Source, r.Side, r.Revision, strconv.FormatFloat(r.Value, 'f', 3, 64)})
		}
	}
	want := [][]string{
		{"BENCH_PR13.json", "base", "2fae1b99925a", "456.216"},
		{"BENCH_PR13.json", "change", "679db3b98f25", "456.213"},
		{"BENCH_PR22.json", "base", "66da490605e5", "86.890"},
		{"BENCH_PR22.json", "change", "7e693b4578ce", "81.487"},
		{"BENCH_PR25.json", "base", "e59edc220bc7", "81.480"},
		{"BENCH_PR25.json", "change", "13b455b0a30e", "79.241"},
		{"BENCH_PR27.json", "base", "a676782278cc", "79.242"},
		{"BENCH_PR27.json", "change", "3354d46286ea", "56.215"},
	}
	if len(got) < len(want) || !reflect.DeepEqual(got[:len(want)], want) {
		t.Errorf("observed alloc_mb trajectory:\n got %v\nwant %v first", got, want)
	}

	dir := t.TempDir()
	for name, doc := range map[string]string{
		"compare.json": `{"generated_at":"2026-08-05T20:57:46Z","baseline":{"EngineDispatch":{"ns/op":221.3}},
			"current":{"EngineDispatch":{"ns/op":96.86}},"delta_pct":{"EngineDispatch":{"ns/op":-56.23}}}`,
		"typo.json": `{"generated_at":"2026-10-15T23:17:11Z","base_revison":"a676782278cc","pairs":1,
			"workloads":{"observed":{"metrics":{"alloc_mb":{"better":"lower","base_runs":[79.2],"change_runs":[56.2]}}}}}`,
	} {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		if n, err := (&Index{}).IngestBenchFile(p); err == nil {
			t.Errorf("%s: ingested %d rows, want an error", name, n)
		}
	}

	old := filepath.Join(dir, IndexFile)
	if err := os.WriteFile(old, []byte(`{"lake_schema":1,"rows":0,"strings":{"id":[]},"ints":{"events":[]},`+
		`"bench":[{"source":"BENCH_PR3.json","bench":"EngineDispatch","metric":"ns/op","value":96.86,"generated_at":"2026-08-05T20:57:46Z"},`+
		`{"source":"BENCH_PR3.json","bench":"HostHop","metric":"ns/op","value":167.2,"generated_at":"2026-08-05T20:57:46Z"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	lk, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	if err := lk.BenchTable("", "ns/op").WriteCSV(&text); err != nil {
		t.Fatal(err)
	}
	if want := "source,bench,metric,side,revision,value\nBENCH_PR3.json,EngineDispatch,ns/op,,,96.86\nBENCH_PR3.json,HostHop,ns/op,,,167.2\n"; text.String() != want {
		t.Errorf("an index.json from before side and revision:\n%s\nwant\n%s", text.String(), want)
	}
}
