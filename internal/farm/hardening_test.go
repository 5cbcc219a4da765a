package farm

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"flexpass/internal/harness"
	"flexpass/internal/obs"
)

// fakeResult builds a minimal successful harness result: an artifact
// whose manifest carries the point's scenario hash, so validArtifact
// accepts it on resume.
func fakeResult(sc harness.Scenario) *harness.Result {
	run := &obs.Run{}
	run.Manifest.Schema = obs.SchemaVersion
	run.Manifest.Scheme = string(sc.Scheme)
	run.Manifest.Config = map[string]string{}
	for k, v := range sc.ManifestConfig {
		run.Manifest.Config[k] = v
	}
	return &harness.Result{Scenario: sc, Telemetry: run}
}

// swapRunner replaces the harness seam for one test.
func swapRunner(t *testing.T, fn func(harness.Scenario) *harness.Result) {
	t.Helper()
	old := runScenario
	runScenario = fn
	t.Cleanup(func() { runScenario = old })
}

// twoPoints is a minimal two-point sweep.
func twoPoints(t *testing.T) []Point {
	t.Helper()
	s, err := ParseSpec([]byte(`{
		"name": "harden",
		"scheme": ["flexpass"],
		"topology": ["tiny"],
		"load": [0.3, 0.6],
		"duration_ms": 0.1,
		"drain_ms": 0.3
	}`))
	if err != nil {
		t.Fatal(err)
	}
	pts, err := s.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("expected 2 points, got %d", len(pts))
	}
	return pts
}

// TestPointTimeoutKillsHungScenario: a scenario that never returns —
// its engines never reach a watch poll — is abandoned by the backstop,
// recorded as a failure with its elapsed time, and the sweep completes
// instead of wedging.
func TestPointTimeoutKillsHungScenario(t *testing.T) {
	hung := make(chan struct{})
	t.Cleanup(func() { close(hung) })
	var calls atomic.Int64
	swapRunner(t, func(sc harness.Scenario) *harness.Result {
		if calls.Add(1) == 1 {
			<-hung // simulate a wedge no watch poll can reach
			return fakeResult(sc)
		}
		return fakeResult(sc)
	})

	dir := t.TempDir()
	rep, err := Execute(twoPoints(t), dir, Options{
		Workers:      1,
		PointTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ran != 1 || len(rep.Failures) != 1 {
		t.Fatalf("ran=%d failures=%d, want 1/1", rep.Ran, len(rep.Failures))
	}
	f := rep.Failures[0]
	if !strings.Contains(f.Error, "wedged") {
		t.Errorf("failure error %q does not name the wedge", f.Error)
	}
	if f.ElapsedMS < 50 {
		t.Errorf("failure elapsed %.1fms, want >= the 50ms deadline", f.ElapsedMS)
	}
	if f.Hash == "" {
		t.Error("failure lost its point hash")
	}

	// failures.jsonl carries the same record, with the new fields.
	data, err := os.ReadFile(filepath.Join(dir, FailuresFile))
	if err != nil {
		t.Fatal(err)
	}
	var rec Failure
	if err := json.Unmarshal([]byte(strings.SplitN(strings.TrimSpace(string(data)), "\n", 2)[0]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.ElapsedMS <= 0 || rec.Hash == "" {
		t.Errorf("failures.jsonl record incomplete: %+v", rec)
	}
}

// TestCancelDrainsAndStaysResumable: canceling the context mid-sweep
// stops dispatching, finishes in-flight points, still writes the index
// — and a second Execute resumes past the completed artifact.
func TestCancelDrainsAndStaysResumable(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	release := make(chan struct{})
	var once atomic.Bool
	swapRunner(t, func(sc harness.Scenario) *harness.Result {
		if once.CompareAndSwap(false, true) {
			close(started)
			<-release // hold the first point in flight until canceled
		}
		return fakeResult(sc)
	})

	dir := t.TempDir()
	done := make(chan *Report, 1)
	go func() {
		rep, err := Execute(twoPoints(t), dir, Options{Workers: 1, Ctx: ctx})
		if err != nil {
			t.Error(err)
		}
		done <- rep
	}()
	<-started
	cancel() // producer stops dispatching the second point
	close(release)
	rep := <-done
	if !rep.Canceled {
		t.Fatal("report does not record the cancellation")
	}
	if rep.Ran != 1 {
		t.Fatalf("in-flight point did not drain: ran=%d", rep.Ran)
	}
	if _, err := os.Stat(filepath.Join(dir, "index.json")); err != nil {
		t.Fatalf("canceled sweep left no index: %v", err)
	}

	// Resume: the completed artifact is skipped, the rest runs.
	rep2, err := Execute(twoPoints(t), dir, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Skipped != 1 || rep2.Ran != 1 {
		t.Fatalf("resume skipped=%d ran=%d, want 1/1", rep2.Skipped, rep2.Ran)
	}
	if rep2.Canceled {
		t.Fatal("resume spuriously reports cancellation")
	}
}
