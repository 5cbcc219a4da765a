package lake

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"flexpass/internal/obs"
)

// sampleRun builds a synthetic v3 artifact covering every metric the
// lake derives: transport counters on two labels, queue drop counters,
// port fault counters, FCT histograms, and applied fault lines.
func sampleRun() *obs.Run {
	return &obs.Run{
		Manifest: obs.Manifest{
			Schema: obs.SchemaVersion, Seed: 7,
			Topology: "clos pods=2 ...", Scheme: "flexpass", Workload: "websearch",
			Load: 0.6, Deployment: 0.5, WQ: 0.5,
			DurationPs:    2_000_000_000, // 2ms
			SchemeOptions: map[string]string{"reactive": "reno", "a": "1"},
			FaultPlan:     "flap", FaultPlanHash: "cafe0123",
			Revision: "abc123",
			Config:   map[string]string{"scenario_hash": "deadbeef", "topo": "tiny", "sweep": "t"},
			WallMS:   12.5, Events: 1000, EventsPerSec: 80000,
		},
		Counters: []obs.CounterData{
			{Entity: "transport/flexpass", Metric: "flows_started", Value: 10},
			{Entity: "transport/flexpass", Metric: "flows_completed", Value: 9},
			{Entity: "transport/flexpass", Metric: "rx_bytes", Value: 150_000},
			{Entity: "transport/flexpass", Metric: "timeouts", Value: 2},
			{Entity: "transport/flexpass", Metric: "retransmits", Value: 3},
			{Entity: "transport/flexpass", Metric: "credits_issued", Value: 40},
			{Entity: "transport/flexpass", Metric: "credits_wasted", Value: 4},
			{Entity: "transport/dctcp", Metric: "flows_started", Value: 5},
			{Entity: "transport/dctcp", Metric: "flows_completed", Value: 5},
			{Entity: "transport/dctcp", Metric: "rx_bytes", Value: 100_000},
			{Entity: "port/tor0->h0", Metric: "tx_bytes", Value: 999}, // not a lake metric
			{Entity: "port/tor0->h0", Metric: "faults_injected", Value: 6},
			{Entity: "port/tor0->h0/q1", Metric: "dropped", Value: 11},
			{Entity: "port/tor0->h0/q1", Metric: "dropped_red", Value: 7},
		},
		Hists: []obs.HistData{
			// 10 flows at <=64us, 1 at <=4096us.
			{Entity: "transport/flexpass", Metric: "fct_us", Count: 11, Sum: 0,
				Le: []int64{64, 4096}, Counts: []int64{10, 1}},
			{Entity: "transport/dctcp", Metric: "fct_us", Count: 5, Sum: 0,
				Le: []int64{64}, Counts: []int64{5}},
		},
		Faults: []obs.FaultData{
			{AtPs: 1, Kind: "link-down", Link: "tor0->h0"},
			{AtPs: 2, Kind: "link-up", Link: "tor0->h0"},
		},
	}
}

func writeArtifact(t *testing.T, dir, name string, r *obs.Run) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := r.WriteJSONLFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestFromRunDerivesMetrics(t *testing.T) {
	dir := t.TempDir()
	path := writeArtifact(t, dir, "a.jsonl", sampleRun())
	ix := &Index{}
	if err := ix.IngestFile(path); err != nil {
		t.Fatal(err)
	}
	if len(ix.Rows) != 1 {
		t.Fatalf("got %d rows", len(ix.Rows))
	}
	r := ix.Rows[0]
	if r.ID != "deadbeef" || r.Topo != "tiny" || r.Sweep != "t" {
		t.Errorf("farm config keys not honored: %+v", r)
	}
	if r.Schema != obs.SchemaVersion || r.Salvaged {
		t.Errorf("schema/salvage wrong: %+v", r)
	}
	if r.Scheme != "flexpass" || r.Workload != "websearch" || r.Seed != 7 {
		t.Errorf("dims wrong: %+v", r)
	}
	if r.Options != "a=1 reactive=reno" {
		t.Errorf("options canonicalization: %q", r.Options)
	}
	if r.Fault != "flap" || r.FaultSig != "cafe0123" || r.Revision != "abc123" {
		t.Errorf("fault/revision dims wrong: %+v", r)
	}
	if r.Flows != 15 || r.Completed != 14 || r.Timeouts != 2 || r.Retransmits != 3 {
		t.Errorf("transport sums wrong: %+v", r)
	}
	if r.CreditsIss != 40 || r.CreditsWaste != 4 {
		t.Errorf("credit sums wrong: %+v", r)
	}
	if r.DropsTotal != 11 || r.DropsRed != 7 || r.FaultDrops != 6 {
		t.Errorf("drop sums wrong: %+v", r)
	}
	if r.FaultActions != 2 {
		t.Errorf("fault lines not counted: %d", r.FaultActions)
	}
	// goodput: 250000 B * 8 bits over 2ms = 1e9 bit/s = 1 Gbps.
	if r.GoodputGbps < 0.999 || r.GoodputGbps > 1.001 {
		t.Errorf("goodput = %g, want 1", r.GoodputGbps)
	}
	// Merged FCT: 15 of 16 at <=64us; p50 = 64, p99 = 4096.
	if r.FCTP50Us != 64 || r.FCTP99Us != 4096 {
		t.Errorf("merged FCT quantiles = %g/%g, want 64/4096", r.FCTP50Us, r.FCTP99Us)
	}
}

// TestIngestOldSchemas checks v1/v2 manifests (no scheme options, no
// fault hash, no revision) still ingest, with the new columns empty.
func TestIngestOldSchemas(t *testing.T) {
	for schema, extra := range map[int]string{
		1: ``,
		2: `{"type":"fault","fault":{"at_ps":5,"kind":"burst-loss","link":"tor0->h0","value":0.5}}`,
	} {
		lines := []string{
			`{"type":"manifest","manifest":{"schema":` + itoa(schema) + `,"seed":3,"topology":"clos","scheme":"dctcp","workload":"hadoop","load":0.4,"duration_ps":1000000000,"wall_ms":1,"events":10,"events_per_sec":10}}`,
			`{"type":"counter","counter":{"entity":"transport/dctcp","metric":"rx_bytes","kind":"delta","value":50000}}`,
			`{"type":"hist","hist":{"entity":"transport/dctcp","metric":"fct_us","count":2,"sum":60,"le":[32],"counts":[2]}}`,
		}
		if extra != "" {
			lines = append(lines, extra)
		}
		dir := t.TempDir()
		path := filepath.Join(dir, "old.jsonl")
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		ix := &Index{}
		if err := ix.IngestFile(path); err != nil {
			t.Fatalf("schema %d: %v", schema, err)
		}
		r := ix.Rows[0]
		if r.Schema != schema || r.Scheme != "dctcp" || r.Workload != "hadoop" {
			t.Errorf("schema %d: dims wrong: %+v", schema, r)
		}
		if r.Options != "" || r.FaultSig != "" || r.Revision != "" {
			t.Errorf("schema %d: v3 columns should be empty: %+v", schema, r)
		}
		if r.GoodputGbps != 0.4 { // 50000*8/1ms = 0.4 Gbps
			t.Errorf("schema %d: goodput = %g", schema, r.GoodputGbps)
		}
		wantActions := int64(0)
		if schema == 2 {
			wantActions = 1
		}
		if r.FaultActions != wantActions {
			t.Errorf("schema %d: fault actions = %d, want %d", schema, r.FaultActions, wantActions)
		}
	}
}

func itoa(n int) string {
	return string(rune('0' + n))
}

// TestIngestSalvagesCorruptArtifact truncates an artifact mid-line and
// checks the typed-error salvage path: the row is built from the
// recovered prefix and marked Salvaged.
func TestIngestSalvagesCorruptArtifact(t *testing.T) {
	dir := t.TempDir()
	path := writeArtifact(t, dir, "c.jsonl", sampleRun())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Keep the manifest and first counter line, then tear the file
	// mid-way through the next line.
	lines := strings.SplitAfter(string(data), "\n")
	torn := lines[0] + lines[1] + lines[2][:len(lines[2])/2]
	if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}
	// Direct read must report the typed corruption error.
	if _, err := obs.ReadJSONLFile(path); err == nil {
		t.Fatal("torn artifact read cleanly")
	} else {
		var cerr *obs.CorruptArtifactError
		if !errors.As(err, &cerr) {
			t.Fatalf("want CorruptArtifactError, got %v", err)
		}
	}
	ix := &Index{}
	if err := ix.IngestFile(path); err != nil {
		t.Fatalf("salvage ingest failed: %v", err)
	}
	r := ix.Rows[0]
	if !r.Salvaged {
		t.Error("row not marked salvaged")
	}
	if r.Scheme != "flexpass" || r.Seed != 7 {
		t.Errorf("manifest dims lost in salvage: %+v", r)
	}
	if r.Flows != 10 {
		t.Errorf("salvaged prefix should hold one counter line: flows=%d", r.Flows)
	}
}

// TestIngestRejectsPreManifestDamage: damage on line one leaves nothing
// to salvage.
func TestIngestRejectsPreManifestDamage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.jsonl")
	if err := os.WriteFile(path, []byte(`{"type":"manif`), 0o644); err != nil {
		t.Fatal(err)
	}
	ix := &Index{}
	if err := ix.IngestFile(path); err == nil {
		t.Fatal("expected error for damage before the manifest")
	}
	if len(ix.Rows) != 0 {
		t.Fatalf("no row should be added, got %d", len(ix.Rows))
	}
}

// TestIndexRoundTrip persists and reloads the columnar index and
// requires exact equality, bench table included.
func TestIndexRoundTrip(t *testing.T) {
	dir := t.TempDir()
	writeArtifact(t, dir, "a.jsonl", sampleRun())
	ix := &Index{}
	if n, errs := ix.IngestDir(dir); n != 1 || len(errs) != 0 {
		t.Fatalf("ingest: n=%d errs=%v", n, errs)
	}
	ix.Bench = []BenchRow{{Source: "B.json", Bench: "EngineDispatch", Metric: "ns/op", Value: 123.5}}
	ix.Sort()
	path := filepath.Join(dir, IndexFile)
	if err := ix.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ix.Rows, got.Rows) {
		t.Errorf("rows did not round-trip:\nwant %+v\ngot  %+v", ix.Rows, got.Rows)
	}
	if !reflect.DeepEqual(ix.Bench, got.Bench) {
		t.Errorf("bench did not round-trip:\nwant %+v\ngot  %+v", ix.Bench, got.Bench)
	}
}

func TestLoadDirFallsBackToRuns(t *testing.T) {
	dir := t.TempDir()
	runs := filepath.Join(dir, RunsDir)
	if err := os.MkdirAll(runs, 0o755); err != nil {
		t.Fatal(err)
	}
	writeArtifact(t, runs, "a.jsonl", sampleRun())
	ix, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ix.Rows) != 1 {
		t.Fatalf("fallback ingest found %d rows", len(ix.Rows))
	}
}

// TestMergedQuantileEmpty: a run with no FCT or CCT histograms has zero
// quantile columns.
func TestMergedQuantileEmpty(t *testing.T) {
	run := sampleRun()
	run.Hists = nil
	if r := FromRun(run, "a.jsonl", false); r.FCTP50Us != 0 || r.FCTP99Us != 0 || r.CCTP99Us != 0 {
		t.Errorf("empty quantiles = %g/%g/%g", r.FCTP50Us, r.FCTP99Us, r.CCTP99Us)
	}
}
