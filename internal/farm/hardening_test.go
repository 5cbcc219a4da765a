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
// not even to the engine watchdog — is abandoned by the backstop,
// recorded as a failure with its attempt count and elapsed time, and
// the sweep completes instead of wedging.
func TestPointTimeoutKillsHungScenario(t *testing.T) {
	hung := make(chan struct{})
	t.Cleanup(func() { close(hung) })
	var calls atomic.Int64
	swapRunner(t, func(sc harness.Scenario) *harness.Result {
		if calls.Add(1) == 1 {
			<-hung // simulate a wedge the cooperative watchdog cannot reach
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
	if f.Attempt != 1 {
		t.Errorf("failure attempt = %d, want 1", f.Attempt)
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
	if rec.Attempt != 1 || rec.ElapsedMS <= 0 || rec.Hash == "" {
		t.Errorf("failures.jsonl record incomplete: %+v", rec)
	}
}

// TestRetryRecoversTransientFailure: a point that panics on its first
// attempt and succeeds on the second lands its artifact, stamps the
// attempt count into the manifest, and reports no failure.
func TestRetryRecoversTransientFailure(t *testing.T) {
	var calls atomic.Int64
	var attemptsStamp atomic.Value
	swapRunner(t, func(sc harness.Scenario) *harness.Result {
		if calls.Add(1) == 1 {
			panic("transient fault")
		}
		attemptsStamp.Store(sc.ManifestConfig["attempts"])
		return fakeResult(sc)
	})

	dir := t.TempDir()
	rep, err := Execute(twoPoints(t)[:1], dir, Options{
		Workers: 1,
		Retries: 2,
		Backoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ran != 1 || len(rep.Failures) != 0 {
		t.Fatalf("ran=%d failures=%d, want 1/0", rep.Ran, len(rep.Failures))
	}
	if got := attemptsStamp.Load(); got != "2" {
		t.Errorf("successful run stamped attempts=%v, want \"2\"", got)
	}
}

// TestRetriesExhausted: a persistently failing point is retried the
// configured number of times, then recorded with its final attempt
// count — and the rest of the sweep still runs.
func TestRetriesExhausted(t *testing.T) {
	var calls atomic.Int64
	swapRunner(t, func(sc harness.Scenario) *harness.Result {
		if sc.Load < 0.5 { // fail only the load=0.3 point
			calls.Add(1)
			panic("permanent fault")
		}
		return fakeResult(sc)
	})

	rep, err := Execute(twoPoints(t), t.TempDir(), Options{
		Workers: 1,
		Retries: 2,
		Backoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ran != 1 || len(rep.Failures) != 1 {
		t.Fatalf("ran=%d failures=%d, want 1/1", rep.Ran, len(rep.Failures))
	}
	if calls.Load() != 3 {
		t.Errorf("failing point executed %d times, want 3 (1 + 2 retries)", calls.Load())
	}
	if rep.Failures[0].Attempt != 3 {
		t.Errorf("failure records attempt %d, want 3", rep.Failures[0].Attempt)
	}
	if !strings.Contains(rep.Failures[0].Error, "permanent fault") {
		t.Errorf("failure error %q lost the panic message", rep.Failures[0].Error)
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
