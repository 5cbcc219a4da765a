package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"flexpass/internal/farm"
	"flexpass/internal/lake"
)

// The parent re-executes its own binary for every rep; under go test
// that binary is this one, so a -child invocation runs the benchmark's
// child instead of the tests.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// BENCHMARK.json and the tables the command prints from must name the
// same workloads and metrics, or the driver reads a metric that is not
// there.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := readBenchmarkJSON(t)
	var gotW, wantW [][2]string
	for _, w := range b.Workloads {
		gotW = append(gotW, [2]string{w.Name, w.Why})
	}
	for _, w := range workloads {
		wantW = append(wantW, [2]string{w.name, w.why})
	}
	if !reflect.DeepEqual(gotW, wantW) {
		t.Errorf("workloads differ:\n json %v\n code %v", gotW, wantW)
	}
	var got, want []metricDef
	for _, m := range b.EndToEnd {
		got = append(got, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", got, endToEnd)
	}
	for _, m := range b.PerLayer {
		want = append(want, metricDef{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(want, layerMetrics) {
		t.Errorf("per_layer differs:\n json %v\n code %v", want, layerMetrics)
	}
}

// mayBeZero lists layer metrics a healthy run can report as zero: the
// engine's steady state allocates nothing, a small clean run may see no
// drop of some kind, no timeout and no retransmit, and the hand-off and
// profiler costs are differences of two timings that a busy host can
// swamp at this scale.
var mayBeZero = map[string]bool{
	"sim.dispatch_allocs": true, "netem.drops_red": true, "netem.drops_credit": true,
	"netem.drops_other": true, "transport.timeouts": true, "transport.retransmits": true,
	"shard.handoff_ns": true, "prof.ns_per_event": true,
}

// TestSmoke runs the whole command — every workload, every unit-cost
// driver, the traced pass, the ledger and the span file — at 1/20
// scale with one rep, through the same re-exec path the real benchmark
// uses, and checks every metric BENCHMARK.json names comes out present,
// finite and non-zero. An API change that breaks the benchmark breaks
// here, in the change that made it.
func TestSmoke(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("big-sharded and farm-sweep need 2 cpus")
	}
	tmp := t.TempDir()
	spans, ledger := filepath.Join(tmp, "spans.json"), filepath.Join(tmp, "ledger.json")
	var out bytes.Buffer
	code := run([]string{"-scale", "0.05", "-reps", "1", "-trace", "1", "-tmp", tmp,
		"-trace-out", spans, "-ledger", ledger}, &out, os.Stderr)
	if code != 0 {
		t.Fatalf("exit code %d\n%s", code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	last := lines[len(lines)-1]
	if !strings.HasSuffix(last, `"claim":null}`) {
		t.Errorf("summary does not end with a null claim: ...%s", last[max(0, len(last)-60):])
	}
	var sum summary
	if err := json.Unmarshal([]byte(last), &sum); err != nil {
		t.Fatal(err)
	}
	b := readBenchmarkJSON(t)
	nonZero := map[string]bool{}
	for _, w := range b.Workloads {
		ws := sum.Workloads[w.Name]
		if ws == nil {
			t.Errorf("%s: missing from the summary", w.Name)
			continue
		}
		if !ws.Correct || ws.Attempted < 1 || ws.Failed != 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d %v", w.Name, ws.Correct, ws.Attempted, ws.Failed, ws.Problems)
		}
		for _, m := range b.EndToEnd {
			if v, ok := ws.Metrics[m.Name]; !ok || !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: end-to-end metric %s = %v (present %v)", w.Name, m.Name, v, ok)
			}
		}
		for _, m := range b.PerLayer {
			v, ok := ws.Layer[m.Name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Errorf("%s: layer metric %s = %v (present %v)", w.Name, m.Name, v, ok)
			}
			if v > 0 {
				nonZero[m.Name] = true
			}
		}
	}
	for _, m := range b.PerLayer {
		if !nonZero[m.Name] && !mayBeZero[m.Name] {
			t.Errorf("layer metric %s is zero on every workload", m.Name)
		}
	}

	// The ledger must be what `flexfarm bench` ingests.
	ix := &lake.Index{}
	if n, err := ix.IngestBenchFile(ledger); err != nil || n == 0 {
		t.Errorf("ledger: ingested %d rows, err %v", n, err)
	}
	// The span file holds at least a rep and its layer calls per workload.
	var trace struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	data, err := os.ReadFile(spans)
	if err == nil {
		err = json.Unmarshal(data, &trace)
	}
	if err != nil || len(trace.TraceEvents) < 4*len(workloads) {
		t.Errorf("span file: %d events, err %v", len(trace.TraceEvents), err)
	}
}

// The same seed reproduces a run exactly; another seed is another run
// that still passes its checks.
func TestSeedIsTheOnlyInput(t *testing.T) {
	rep := func(seed int64) *repResult {
		res, err := runRep(repArgs{workload: "clos-mixed", seed: seed, scale: 0.05, tmp: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 || len(res.Problems) != 0 {
			t.Errorf("seed %d: %d failed, problems %v", seed, res.Failed, res.Problems)
		}
		return res
	}
	a, b, c := rep(1), rep(1), rep(2)
	if a.Digest != b.Digest || a.Events != b.Events {
		t.Errorf("seed 1 twice: digests %.12s %.12s, events %d %d", a.Digest, b.Digest, a.Events, b.Events)
	}
	if a.Digest == c.Digest {
		t.Errorf("seeds 1 and 2 share digest %.12s", a.Digest)
	}
}

// A damaged artifact must fail the lake check, and a failed check must
// fail the command.
func TestCorruptArtifactFailsTheRun(t *testing.T) {
	tmp := t.TempDir()
	points, err := farmPoints(tmp, 1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	lakeDir := filepath.Join(tmp, "lake")
	if _, err := farm.Execute(points, lakeDir, farm.Options{Workers: farmWorkers}); err != nil {
		t.Fatal(err)
	}
	ix, problems := checkLake(lakeDir, len(points))
	if len(problems) != 0 {
		t.Fatalf("clean lake: %v", problems)
	}
	events, digest := lakeDigest(ix)

	paths, _ := filepath.Glob(filepath.Join(lakeDir, lake.RunsDir, "*.jsonl"))
	sort.Strings(paths)
	fi, err := os.Stat(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(paths[0], fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	if _, problems = checkLake(lakeDir, len(points)); len(problems) == 0 {
		t.Fatal("truncated artifact passed the lake check")
	}

	rep := &repResult{Workload: farmSweep, Rep: 1, WallS: 1, Events: events, Digest: digest,
		Attempted: len(points), Problems: problems}
	w := &workloadRun{def: &workloads[len(workloads)-1], reps: []*repResult{rep}}
	var out bytes.Buffer
	if err := report(options{seed: 1, scale: 0.05, tmp: tmp}, []*workloadRun{w}, nil, nil, &out); err == nil {
		t.Errorf("report succeeded despite %v\n%s", problems, out.String())
	}
	if !strings.Contains(out.String(), `"correct":false`) {
		t.Errorf("result does not say correct=false:\n%s", out.String())
	}
}

// checkSpans must reject a child outside its parent and a rep whose
// layer calls leave more than 5% of it unaccounted for.
func TestCheckSpans(t *testing.T) {
	good := []span{
		{ID: 1, Name: "rep", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "harness.Run", Start: 1, End: 99},
	}
	if bad := checkSpans(good); len(bad) != 0 {
		t.Errorf("well-formed trace rejected: %v", bad)
	}
	outside := []span{good[0], {ID: 2, Parent: 1, Name: "harness.Run", Start: 50, End: 120}}
	if bad := checkSpans(outside); len(bad) == 0 {
		t.Error("child ending after its parent was accepted")
	}
	sparse := []span{{ID: 1, Name: "rep", Start: 0, End: 100e6}, {ID: 2, Parent: 1, Name: "harness.Run", Start: 0, End: 80e6}}
	if bad := checkSpans(sparse); len(bad) == 0 {
		t.Error("rep with 80% coverage was accepted")
	}
	if self := selfNs(good); self[0] != 2 || self[1] != 98 {
		t.Errorf("self times %v, want [2 98]", self)
	}
}
