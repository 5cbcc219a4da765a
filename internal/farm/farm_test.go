package farm

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"flexpass/internal/harness"
	"flexpass/internal/lake"
	"flexpass/internal/obs"
)

// testSpec is a 4-point sweep on the tiny fabric, sized to keep the
// whole suite fast.
func testSpec(t *testing.T) *Spec {
	t.Helper()
	s, err := ParseSpec([]byte(`{
		"name": "t",
		"scheme": ["flexpass", "dctcp"],
		"topology": ["tiny"],
		"load": [0.3, 0.6],
		"deployment": [1.0],
		"seed": [1],
		"duration_ms": 0.3,
		"drain_ms": 1.0
	}`))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSpecDefaultsAndExpansion(t *testing.T) {
	s, err := ParseSpec([]byte(`{"scheme": ["flexpass"]}`))
	if err != nil {
		t.Fatal(err)
	}
	pts, err := s.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 {
		t.Fatalf("minimal spec expanded to %d points", len(pts))
	}
	p := pts[0]
	if p.Topo != "small" || p.Workload != "websearch" || p.Load != 0.5 || p.Seed != 1 {
		t.Errorf("defaults wrong: %+v", p)
	}
	if p.DurationMS != 2 || p.DrainMS != 10 {
		t.Errorf("duration defaults wrong: %+v", p)
	}

	pts, err = testSpec(t).Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("2 schemes x 2 loads expanded to %d points", len(pts))
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []string{
		`{}`,                           // no schemes
		`{"scheme": ["nosuchscheme"]}`, // unregistered scheme
		`{"scheme": ["flexpass"], "topology": ["x"]}`, // unknown topology
		`{"scheme": ["flexpass"], "workload": ["x"]}`, // unknown workload
		`{"scheme": ["flexpass"], "load": [1.5]}`,     // load out of range
		`{"scheme": ["flexpass"], "wq": [0]}`,         // wq out of range
		`{"scheme": ["flexpass"], "typo_axis": [1]}`,  // unknown field
		`{"scheme": ["flexpass"], "fault": ["garbage spec"]}`,
		`{"scheme": ["flexpass"]} {"scheme": ["dctcp"]}`, // second document
		`{"scheme": ["flexpass"]} trailing`,
		`{"scheme": ["flexpass"], "incast": 1}`,  // incast out of range
		`{"scheme": ["flexpass"], "incast": -1}`, // incast out of range
		`{"scheme": ["flexpass"], "drain_ms": -1}`,
	}
	for _, in := range bad {
		if _, err := ParseSpec([]byte(in)); err == nil {
			t.Errorf("spec %s accepted", in)
		}
	}
	// JSON has no NaN or Inf; flexsim's flags build a Spec directly.
	nan, inf := math.NaN(), math.Inf(1)
	for name, mutate := range map[string]func(*Spec){
		"load NaN":       func(s *Spec) { s.Loads = []float64{nan} },
		"deployment NaN": func(s *Spec) { s.Deployments = []float64{nan} },
		"wq NaN":         func(s *Spec) { s.WQs = []float64{nan} },
		"incast NaN":     func(s *Spec) { s.IncastFraction = nan },
		"incast 1.5":     func(s *Spec) { s.IncastFraction = 1.5 },
		"incast -1":      func(s *Spec) { s.IncastFraction = -1 },
		"duration NaN":   func(s *Spec) { s.DurationMS = nan },
		"duration Inf":   func(s *Spec) { s.DurationMS = inf },
		"drain NaN":      func(s *Spec) { s.DrainMS = &nan },
		"drain Inf":      func(s *Spec) { s.DrainMS = &inf },
	} {
		s := Spec{Schemes: []string{"flexpass"}}
		mutate(&s)
		if err := s.Validate(); err == nil || !strings.HasPrefix(err.Error(), "farm: ") {
			t.Errorf("%s: Validate returned %v, want a farm: error", name, err)
		}
	}
}

func TestPointHashIdentity(t *testing.T) {
	pts, err := testSpec(t).Points()
	if err != nil {
		t.Fatal(err)
	}
	p := pts[0]
	h := p.Hash()
	if len(h) != 24 {
		t.Fatalf("hash %q not 24 hex chars", h)
	}
	if p.Hash() != h {
		t.Error("hash not deterministic")
	}
	// The display-only fault entry is excluded from identity...
	q := p
	q.Fault = "renamed-plan.json"
	if q.Hash() != h {
		t.Error("display fault name changed the hash")
	}
	// ...but the resolved fault-plan hash, and every real axis, are in.
	q = p
	q.FaultHash = "deadbeef"
	if q.Hash() == h {
		t.Error("fault plan hash not part of the identity")
	}
	q = p
	q.Seed = 99
	if q.Hash() == h {
		t.Error("seed not part of the identity")
	}
	// All points in a sweep are distinct.
	seen := map[string]bool{}
	for _, pt := range pts {
		if h := pt.Hash(); seen[h] {
			t.Fatalf("duplicate hash %s", h)
		} else {
			seen[h] = true
		}
	}
}

// TestPointHashesStable pins the content address of every point of the
// two sweeps whose lakes outlive a commit (the CI regression baseline and
// the benchmark's farm workload) to the values taken before Point lost
// its packet-pool switch: the field was omitempty and false everywhere,
// so no identity moves and an existing lake resumes with nothing re-run.
func TestPointHashesStable(t *testing.T) {
	for _, c := range []struct {
		path string
		n    int
		all  string // sha256 over the points' hashes, one per line
	}{
		{"../../ci/microsweep.json", 64, "36f0e69808d1a8ce9e8bd161"},
		{"../../bench/specs/farm-sweep.json", 6, "0efc29ed1f67729abb884add"},
	} {
		s, err := ParseSpecFile(c.path)
		if err != nil {
			t.Fatal(err)
		}
		pts, err := s.Points()
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, p := range pts {
			fmt.Fprintln(h, p.Hash())
		}
		if all := hex.EncodeToString(h.Sum(nil)[:12]); len(pts) != c.n || all != c.all {
			t.Errorf("%s: %d points hashing to %s; want %d, %s", c.path, len(pts), all, c.n, c.all)
		}
	}
}

// TestCheckedInSpecsValid pins every sweep spec the repo ships — the
// CI micro-sweep, the figure specs and the examples — as parseable and
// expandable.
func TestCheckedInSpecsValid(t *testing.T) {
	specs, err := filepath.Glob("../../examples/sweeps/*.json")
	if err != nil {
		t.Fatal(err)
	}
	figures, err := filepath.Glob("../../ci/figures/*.json")
	if err != nil {
		t.Fatal(err)
	}
	specs = append(append(specs, figures...), "../../ci/microsweep.json")
	if len(specs) < 13 {
		t.Fatalf("expected at least 13 checked-in specs, found %v", specs)
	}
	for _, path := range specs {
		s, err := ParseSpecFile(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		pts, err := s.Points()
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if len(pts) == 0 {
			t.Errorf("%s expands to zero points", path)
		}
		if strings.Contains(path, "scaling") && len(pts) < 64 {
			t.Errorf("scaling sweep has %d points, want >= 64", len(pts))
		}
	}
}

// TestExecuteResumes is the resumability contract: running the second
// half of a half-finished sweep must (a) not rewrite the finished
// artifacts and (b) leave the lake with contents identical to a
// from-scratch full run — proven with a zero-tolerance diff, which
// gates every deterministic metric and ignores only the wall-clock
// perf self-reports.
func TestExecuteResumes(t *testing.T) {
	pts, err := testSpec(t).Points()
	if err != nil {
		t.Fatal(err)
	}
	resumed := t.TempDir()
	rep, err := Execute(pts[:2], resumed, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ran != 2 || rep.Skipped != 0 || len(rep.Failures) != 0 {
		t.Fatalf("half sweep: %+v", rep)
	}
	// Snapshot the finished artifacts' bytes.
	before := map[string][]byte{}
	for _, p := range pts[:2] {
		path := filepath.Join(resumed, lake.RunsDir, p.Hash()+".jsonl")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		before[path] = data
	}

	// Resume with the full point set.
	rep, err = Execute(pts, resumed, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ran != 2 || rep.Skipped != 2 || len(rep.Failures) != 0 {
		t.Fatalf("resume: %+v", rep)
	}
	for path, want := range before {
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("resume rewrote finished artifact %s", path)
		}
	}

	// From-scratch run of the same sweep in a fresh lake.
	scratch := t.TempDir()
	if _, err := Execute(pts, scratch, Options{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	a, err := lake.Load(resumed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := lake.Load(scratch)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != 4 || len(b.Rows) != 4 {
		t.Fatalf("lakes hold %d/%d rows, want 4/4", len(a.Rows), len(b.Rows))
	}
	d, err := lake.Diff(a, b, lake.Tolerance{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Clean() {
		var sb strings.Builder
		d.WriteText(&sb)
		t.Errorf("resumed lake differs from from-scratch lake:\n%s", sb.String())
	}
}

// TestExecuteCorruptArtifactReruns: a torn artifact fails validation
// and is re-executed rather than resumed past.
func TestExecuteCorruptArtifactReruns(t *testing.T) {
	pts, err := testSpec(t).Points()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := Execute(pts[:1], dir, Options{}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, lake.RunsDir, pts[0].Hash()+".jsonl")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := Execute(pts[:1], dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ran != 1 || rep.Skipped != 0 {
		t.Fatalf("torn artifact was resumed past: %+v", rep)
	}
}

// TestExecuteIsolatesFailures: a scenario whose fault plan panics
// inside the harness becomes a failure record; the rest of the sweep
// completes, and a later clean run removes the failure log.
func TestExecuteIsolatesFailures(t *testing.T) {
	s, err := ParseSpec([]byte(`{
		"name": "f",
		"scheme": ["flexpass"],
		"topology": ["tiny"],
		"deployment": [1.0],
		"duration_ms": 0.3, "drain_ms": 1.0,
		"fault": ["", "down@nosuchport*@0.1ms-0.2ms"]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	pts, err := s.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("expanded to %d points", len(pts))
	}
	dir := t.TempDir()
	rep, err := Execute(pts, dir, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ran != 1 || len(rep.Failures) != 1 {
		t.Fatalf("failure not isolated: %+v", rep)
	}
	f := rep.Failures[0]
	if !strings.Contains(f.Error, "panic") || !strings.Contains(f.Error, "nosuchport") {
		t.Errorf("failure error: %q", f.Error)
	}
	// The failure log holds the record as one JSON line.
	data, err := os.ReadFile(filepath.Join(dir, FailuresFile))
	if err != nil {
		t.Fatal(err)
	}
	var rec Failure
	if err := json.Unmarshal([]byte(strings.SplitN(string(data), "\n", 2)[0]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Hash != f.Hash || rec.Point.Fault != "down@nosuchport*@0.1ms-0.2ms" {
		t.Errorf("failure record: %+v", rec)
	}
	// The lake still indexed the clean half.
	ix, err := lake.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ix.Rows) != 1 {
		t.Fatalf("lake rows after partial failure: %d", len(ix.Rows))
	}
	// Re-running only the good point leaves no stale failure log.
	if _, err := Execute(pts[:1], dir, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, FailuresFile)); !os.IsNotExist(err) {
		t.Error("stale failure log survived a clean run")
	}
}

// A workload axis entry ending in .json is a workload-plan file: the
// point carries the plan (Scenario gets WorkloadPlan) and its identity
// is the plan's content hash, so renaming the file changes neither the
// point hash nor the artifact it resumes from.
func TestWorkloadPlanAxis(t *testing.T) {
	dir := t.TempDir()
	planJSON := `{"sources":[
		{"kind":"poisson","tenant":"bg","cdf":"websearch","load":0.3},
		{"kind":"incast","fraction":0.1,"flow_size":8000,"coflow":true}
	]}`
	specFor := func(name string) *Spec {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(planJSON), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := ParseSpec([]byte(`{
			"name": "wp",
			"scheme": ["flexpass"],
			"topology": ["tiny"],
			"workload": ["websearch", ` + strconv.Quote(path) + `],
			"duration_ms": 0.3
		}`))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	pts, err := specFor("first.json").Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("expanded to %d points", len(pts))
	}
	named, planned := pts[0], pts[1]
	if named.WorkloadHash != "" {
		t.Fatalf("distribution-name point grew a plan hash: %+v", named)
	}
	if planned.WorkloadHash == "" || !strings.HasSuffix(planned.Workload, "first.json") {
		t.Fatalf("plan point wrong: %+v", planned)
	}
	sc := planned.Scenario()
	if sc.WorkloadPlan == nil || sc.Workload != nil {
		t.Fatal("plan point's scenario should route through WorkloadPlan")
	}
	if sc.WorkloadPlan.Hash() != planned.WorkloadHash {
		t.Fatal("point hash does not match the resolved plan")
	}

	// Renaming the plan file must not change the point identity.
	pts2, err := specFor("renamed.json").Points()
	if err != nil {
		t.Fatal(err)
	}
	if pts2[1].Hash() != planned.Hash() {
		t.Fatalf("renaming the plan file changed the point hash: %s vs %s",
			pts2[1].Hash(), planned.Hash())
	}
	if pts2[0].Hash() != named.Hash() {
		t.Fatal("plain workload point hash drifted")
	}

	// A broken plan file fails spec validation up front.
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"sources":[{"kind":"warp"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseSpec([]byte(`{"scheme":["flexpass"],"workload":[` + strconv.Quote(bad) + `]}`)); err == nil {
		t.Fatal("spec with an invalid plan file should fail validation")
	}
}

// A workload axis entry ending in .csv is a flow trace: the one-source
// trace plan a wrapper .json would name, with the wrapper's point hash
// and plan name, so a figure spec may name its traces directly. A trace
// that cannot be read fails validation.
func TestTraceWorkloadEntry(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "burst.csv")
	if err := os.WriteFile(trace, []byte("at_us,src,dst,size_bytes,incast\n0.000,0,2,30000,0\n2.000,1,3,8000,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	wrapper := filepath.Join(dir, "wrapper.json")
	if err := os.WriteFile(wrapper, []byte(`{"name": "burst", "sources": [{"kind": "trace", "path": "burst.csv"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	specFor := func(entry string) string {
		return `{"name": "tr", "scheme": ["flexpass"], "topology": ["tiny"], "workload": [` + strconv.Quote(entry) + `]}`
	}
	var pts [2]Point
	for i, entry := range []string{trace, wrapper} {
		s, err := ParseSpec([]byte(specFor(entry)))
		if err != nil {
			t.Fatal(err)
		}
		p, err := s.Points()
		if err != nil {
			t.Fatal(err)
		}
		pts[i] = p[0]
	}
	csvPlan, jsonPlan := pts[0].Scenario().WorkloadPlan, pts[1].Scenario().WorkloadPlan
	if pts[0].WorkloadHash == "" || pts[0].Hash() != pts[1].Hash() || csvPlan.Name != jsonPlan.Name {
		t.Fatalf("trace entry: point %s, plan %q; wrapper: point %s, plan %q",
			pts[0].Hash(), csvPlan.Name, pts[1].Hash(), jsonPlan.Name)
	}
	if _, err := ParseSpec([]byte(specFor(filepath.Join(dir, "missing.csv")))); err == nil {
		t.Fatal("spec naming an unreadable trace should fail validation")
	}
}

// TestSpecResolvesEntriesOnce: ParseSpecFile reads each plan, trace and
// fault file once, and Points expands what it read. With every file
// deleted after parsing, Points gives the same point hashes and the
// scenarios still carry the plans.
func TestSpecResolvesEntriesOnce(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"burst.csv":  "at_us,src,dst,size_bytes,incast\n0.000,0,2,30000,0\n2.000,1,3,8000,1\n",
		"mix.json":   `{"sources": [{"kind": "poisson", "cdf": "websearch"}, {"kind": "trace", "path": "burst.csv"}]}`,
		"fault.json": `{"events": [{"kind": "link-down", "link": "tor0.0->h0.0.0", "at": "0.1ms", "end": "0.2ms"}]}`,
		"spec.json": `{"scheme": ["flexpass"], "topology": ["tiny"],
			"workload": ["websearch", "mix.json", "burst.csv"], "fault": ["", "fault.json", "down@sw0->h1@1ms-2ms"]}`,
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := ParseSpecFile(filepath.Join(dir, "spec.json"))
	if err != nil {
		t.Fatal(err)
	}
	hashes := func() []string {
		t.Helper()
		pts, err := s.Points()
		if err != nil {
			t.Fatal(err)
		}
		var hs []string
		for _, p := range pts {
			sc := p.Scenario()
			if (p.WorkloadHash != "") != (sc.WorkloadPlan != nil) || (p.FaultHash != "") != (sc.FaultPlan != nil) {
				t.Fatalf("%s: scenario lost its plans", p.Label())
			}
			hs = append(hs, p.Hash())
		}
		return hs
	}
	want := hashes()
	if len(want) != 9 {
		t.Fatalf("%d points, want 9", len(want))
	}
	for name := range files {
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	if got := hashes(); !slices.Equal(got, want) {
		t.Errorf("points after the files went: %v, want %v", got, want)
	}
}

// TestExecuteIndexMatchesIngest: the index Execute builds from the runs
// it holds is byte-identical to the one lake.Load rebuilds from runs/,
// with a faulted point, another sweep's artifact and a torn artifact
// (salvaged) in the directory, after a fresh sweep and again after a
// resume that skips every point. And every run's row is the same built
// from the run in memory as from its artifact read back.
func TestExecuteIndexMatchesIngest(t *testing.T) {
	s, err := ParseSpec([]byte(`{
		"name": "ix",
		"scheme": ["flexpass", "dctcp"],
		"topology": ["tiny"],
		"deployment": [1.0],
		"duration_ms": 0.3, "drain_ms": 1.0,
		"fault": ["", "burst@*@0.1ms-0.2ms@0.5"]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	pts, err := s.Points()
	if err != nil {
		t.Fatal(err)
	}

	// Another sweep's artifact, whole and torn, is in runs/ beforehand.
	foreign := pts[0]
	foreign.Sweep, foreign.Seed = "other", 2
	other := t.TempDir()
	if _, err := Execute([]Point{foreign}, other, Options{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(other, lake.RunsDir, foreign.Hash()+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	runs := filepath.Join(dir, lake.RunsDir)
	if err := os.MkdirAll(runs, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string][]byte{foreign.Hash() + ".jsonl": data, "torn.jsonl": data[:len(data)-5]} {
		if err := os.WriteFile(filepath.Join(runs, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	var mu sync.Mutex
	var held []*obs.Run
	swapRunner(t, func(sc harness.Scenario) *harness.Result {
		res := harness.Run(sc)
		mu.Lock()
		held = append(held, res.Telemetry)
		mu.Unlock()
		return res
	})

	index := filepath.Join(dir, lake.IndexFile)
	for _, pass := range []string{"fresh", "resume"} {
		rep, err := Execute(pts, dir, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if want := map[string]int{"fresh": 0, "resume": len(pts)}[pass]; rep.Skipped != want || rep.Ran != len(pts)-want {
			t.Fatalf("%s: ran %d, skipped %d", pass, rep.Ran, rep.Skipped)
		}
		built, err := os.ReadFile(index)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(index); err != nil {
			t.Fatal(err)
		}
		ix, err := lake.Load(dir)
		if err != nil {
			t.Fatal(err)
		}
		salvaged, faulted := 0, 0
		for _, r := range ix.Rows {
			if r.Salvaged {
				salvaged++
			}
			if r.FaultActions > 0 {
				faulted++
			}
		}
		if len(ix.Rows) != len(pts)+2 || salvaged != 1 || faulted == 0 {
			t.Fatalf("%s: %d rows (%d salvaged, %d faulted) for %d points + 2 foreign", pass, len(ix.Rows), salvaged, faulted, len(pts))
		}
		if err := ix.WriteTo(dir); err != nil {
			t.Fatal(err)
		}
		rebuilt, err := os.ReadFile(index)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(built, rebuilt) {
			t.Errorf("%s: Execute's index differs from the one rebuilt from runs/:\n%s\n%s", pass, built, rebuilt)
		}
	}

	if len(held) != len(pts) {
		t.Fatalf("%d runs executed for %d points", len(held), len(pts))
	}
	for _, run := range held {
		var buf bytes.Buffer
		if err := run.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := obs.ReadJSONL(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if mem, disk := lake.FromRun(run, "a.jsonl", false), lake.FromRun(back, "a.jsonl", false); mem != disk {
			t.Errorf("%s: row from the run in memory %+v, from its artifact %+v", mem.ID, mem, disk)
		}
	}
}
