package lake

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"flexpass/internal/metrics"
	"flexpass/internal/obs"
	"flexpass/internal/sim"
)

// sampleRun builds a synthetic artifact covering every metric the lake
// derives: a flow table on two transports, credit counters, queue drop
// counters, port fault counters, and applied fault lines.
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
		Flows: sampleFlows(),
		Counters: []obs.CounterData{
			{Entity: "transport/flexpass", Metric: "flows_started", Value: 10},
			{Entity: "transport/flexpass", Metric: "credits_issued", Value: 40},
			{Entity: "transport/flexpass", Metric: "credits_wasted", Value: 4},
			{Entity: "port/tor0->h0", Metric: "tx_bytes", Value: 999}, // not a lake metric
			{Entity: "port/tor0->h0", Metric: "faults_injected", Value: 6},
			{Entity: "port/tor0->h0/q1", Metric: "dropped", Value: 11},
			{Entity: "port/tor0->h0/q1", Metric: "dropped_red", Value: 7},
		},
		Hists: []obs.HistData{
			// Bucket bounds the FCT columns must not read.
			{Entity: "transport/flexpass", Metric: "fct_us", Count: 9, Le: []int64{64, 128}, Counts: []int64{6, 3}},
		},
		Faults: []obs.FaultData{
			{AtPs: 1, Kind: "link-down", Link: "tor0->h0"},
			{AtPs: 2, Kind: "link-up", Link: "tor0->h0"},
		},
	}
}

// sampleFlows is a 15-flow table: ten upgraded flexpass flows of 15 kB
// finishing in 10, 20, ... 90 us with the tenth incomplete, then five
// legacy dctcp flows of 20 kB finishing in 15, 25, 35, 45 and 1000 us —
// 250 kB delivered, 2 timeouts, 3 retransmits.
func sampleFlows() []metrics.FlowRecord {
	var recs []metrics.FlowRecord
	for i := 1; i <= 10; i++ {
		r := metrics.FlowRecord{ID: uint64(i), Size: 15_000, Start: sim.Time(i), FCT: sim.Time(i) * 10 * sim.Microsecond,
			Completed: true, Transport: "flexpass", RxBytes: 15_000}
		if i == 10 {
			r.FCT, r.Completed, r.Timeouts = -1, false, 2
		}
		recs = append(recs, r)
	}
	recs[0].Retransmits = 3
	for i, us := range []sim.Time{15, 25, 35, 45, 1000} {
		recs = append(recs, metrics.FlowRecord{ID: uint64(11 + i), Size: 20_000, Start: sim.Time(11 + i),
			FCT: us * sim.Microsecond, Completed: true, Legacy: true, Transport: "dctcp", RxBytes: 20_000})
	}
	return recs
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
		t.Errorf("flow-table sums wrong: %+v", r)
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
	checkFCTColumns(t, r)
}

// checkFCTColumns holds a sampleRun row's FCT columns to the exact order
// statistics of sampleFlows' 14 completed flows (10 ... 90, 15 ... 45 and
// 1000 us): nearest-rank p50 is the 7th smallest, p99 the largest.
func checkFCTColumns(t *testing.T, r Row) {
	t.Helper()
	us := func(v ...sim.Time) (out []sim.Time) {
		for _, x := range v {
			out = append(out, x*sim.Microsecond)
		}
		return out
	}
	legacy, upgraded := us(15, 25, 35, 45, 1000), us(10, 20, 30, 40, 50, 60, 70, 80, 90)
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"avg_fct_us", r.AvgFCTUs, (1570 * sim.Microsecond / 14).Micros()},
		{"fct_p50_us", r.FCTP50Us, 40},
		{"fct_p99_us", r.FCTP99Us, 1000},
		{"p99_small_us", r.P99SmallUs, 1000},
		{"p99_small_legacy_us", r.P99SmallLegacyUs, 1000},
		{"p99_small_new_us", r.P99SmallNewUs, 90},
		{"std_small_legacy_us", r.StdSmallLegacyUs, metrics.StdDev(legacy).Micros()},
		{"std_small_new_us", r.StdSmallNewUs, metrics.StdDev(upgraded).Micros()},
	} {
		if c.got != c.want {
			t.Errorf("%s = %g, want %g", c.name, c.got, c.want)
		}
	}
}

// TestIngestOldSchemas: an artifact from before the flow table (schema
// < 5) has nothing to compute the per-flow columns from, so ingest skips
// it with an error that names the schema, and a directory scan keeps the
// current artifacts beside it.
func TestIngestOldSchemas(t *testing.T) {
	dir := t.TempDir()
	writeArtifact(t, dir, "new.jsonl", sampleRun())
	for _, schema := range []string{"1", "2", "4"} {
		old := `{"type":"manifest","manifest":{"schema":` + schema + `,"seed":3,"scheme":"dctcp","duration_ps":1000000000}}` + "\n" +
			`{"type":"counter","counter":{"entity":"transport/dctcp","metric":"rx_bytes","kind":"delta","value":50000}}` + "\n"
		if err := os.WriteFile(filepath.Join(dir, "old"+schema+".jsonl"), []byte(old), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ix := &Index{}
	n, errs := ix.IngestDir(dir)
	if n != 1 || len(ix.Rows) != 1 || ix.Rows[0].Seed != 7 {
		t.Fatalf("ingested %d rows %+v, want the one current artifact", n, ix.Rows)
	}
	if len(errs) != 3 {
		t.Fatalf("%d errors for three old artifacts: %v", len(errs), errs)
	}
	for i, schema := range []string{"1", "2", "4"} {
		if msg := errs[i].Error(); !strings.Contains(msg, "old"+schema+".jsonl") || !strings.Contains(msg, "schema "+schema) {
			t.Errorf("error %q does not name the file and its schema", msg)
		}
	}
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
	// Keep the manifest and the flow lines, then tear the file mid-way
	// through the next line.
	lines := strings.SplitAfter(string(data), "\n")
	nf := len(sampleFlows())
	torn := strings.Join(lines[:1+nf], "") + lines[1+nf][:len(lines[1+nf])/2]
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
	// The flow table precedes the damage: every per-flow column is exact,
	// while the counters behind it are lost.
	if r.Flows != 15 || r.Completed != 14 || r.GoodputGbps < 0.999 || r.GoodputGbps > 1.001 {
		t.Errorf("salvaged flow table incomplete: %+v", r)
	}
	checkFCTColumns(t, r)
	if r.CreditsIss != 0 || r.DropsTotal != 0 {
		t.Errorf("counters past the damage leaked into the row: %+v", r)
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
	ix.Bench = []BenchRow{{Source: "B.json", Bench: "observed", Metric: "alloc_mb", Side: "change", Revision: "3354d46286ea", Value: 56.2}}
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

// TestMergedQuantileEmpty: a run with no flow lines and no CCT histogram
// has zero FCT and CCT columns.
func TestMergedQuantileEmpty(t *testing.T) {
	run := sampleRun()
	run.Flows, run.Hists = nil, nil
	r := FromRun(run, "a.jsonl", false)
	if r.Flows != 0 || r.FCTP50Us != 0 || r.FCTP99Us != 0 || r.P99SmallUs != 0 || r.AvgFCTUs != 0 || r.CCTP99Us != 0 {
		t.Errorf("empty run has FCT columns %+v", r)
	}
}

// TestEveryFieldRoundTrips: a row whose every field holds a distinct
// non-zero value survives WriteFile and ReadFile, and value reads each
// field back under exactly one column name — so a Row field that loses
// its lake tag, or two columns that read one field, fail here.
func TestEveryFieldRoundTrips(t *testing.T) {
	var row Row
	rv := reflect.ValueOf(&row).Elem()
	want := map[string]bool{} // each field's display string
	for i := range rv.NumField() {
		f := rv.Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString(fmt.Sprintf("s%d", i))
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(i + 1))
		case reflect.Float64:
			f.SetFloat(float64(i) + 0.5)
		case reflect.Bool:
			f.SetBool(true)
		default:
			t.Fatalf("Row.%s is a %s, which no column family holds", rv.Type().Field(i).Name, f.Type())
		}
		want[fmt.Sprint(f.Interface())] = true
	}
	if len(want) != rv.NumField() {
		t.Fatalf("%d distinct values for %d fields", len(want), rv.NumField())
	}
	ix := &Index{Rows: []Row{row}}
	path := filepath.Join(t.TempDir(), IndexFile)
	if err := ix.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Rows, ix.Rows) {
		t.Errorf("row did not round-trip:\nwant %+v\ngot  %+v", ix.Rows, got.Rows)
	}
	for _, name := range ColumnNames() {
		s, _, _, ok := value(&got.Rows[0], name)
		if !ok || !want[s] {
			t.Errorf("column %s reads %q (ok %v), not a field's value or a second column's", name, s, ok)
		}
		delete(want, s)
	}
	for s := range want {
		t.Errorf("no column reads the field holding %s", s)
	}
}
