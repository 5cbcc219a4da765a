package harness

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestEach(t *testing.T) {
	t.Run("every index once, bounded", func(t *testing.T) {
		const n, workers = 200, 3
		var seen [n]atomic.Int32
		var inFlight, peak atomic.Int32
		got := Each(context.Background(), workers, n, func(w, i int) {
			if w < 0 || w >= workers {
				t.Errorf("worker %d outside [0, %d)", w, workers)
			}
			cur := inFlight.Add(1)
			for p := peak.Load(); cur > p && !peak.CompareAndSwap(p, cur); p = peak.Load() {
			}
			seen[i].Add(1)
			time.Sleep(10 * time.Microsecond)
			inFlight.Add(-1)
		})
		if got != n {
			t.Fatalf("dispatched %d, want %d", got, n)
		}
		for i := range seen {
			if c := seen[i].Load(); c != 1 {
				t.Fatalf("index %d ran %d times", i, c)
			}
		}
		if p := peak.Load(); p > workers {
			t.Fatalf("%d calls in flight, want <= %d", p, workers)
		}
	})
	t.Run("cancel stops dispatch", func(t *testing.T) {
		const n = 100
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var ran atomic.Int32
		got := Each(ctx, 2, n, func(_, i int) {
			if ran.Add(1) == 5 {
				cancel()
			}
		})
		if got >= n || got < 5 {
			t.Fatalf("dispatched %d of %d after a cancel at the 5th call", got, n)
		}
		if int(ran.Load()) != got {
			t.Fatalf("returned %d dispatched, but %d calls ran", got, ran.Load())
		}
	})
	t.Run("canceled before the first", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if got := Each(ctx, 2, 10, func(_, _ int) { t.Error("fn ran under a done context") }); got != 0 {
			t.Fatalf("dispatched %d, want 0", got)
		}
	})
	t.Run("n = 0", func(t *testing.T) {
		if got := Each(context.Background(), 0, 0, func(_, _ int) { t.Error("fn ran") }); got != 0 {
			t.Fatalf("dispatched %d, want 0", got)
		}
	})
}

// TestTry: Run's panics come back as errors — a watchdog kill typed, a
// contract violation as text — and a clean run comes back as it is.
func TestTry(t *testing.T) {
	kill := &KilledError{Reason: "deadline"}
	_, err := Try(func(Scenario) *Result { panic(kill) }, Scenario{})
	var ke *KilledError
	if !errors.As(err, &ke) || ke != kill {
		t.Fatalf("kill came back as %v, want the *KilledError itself", err)
	}
	_, err = Try(func(Scenario) *Result { panic("harness: bad scenario") }, Scenario{})
	if err == nil || err.Error() != "panic: harness: bad scenario" {
		t.Fatalf("contract violation came back as %v", err)
	}
	want := &Result{}
	if res, err := Try(func(Scenario) *Result { return want }, Scenario{}); res != want || err != nil {
		t.Fatalf("clean run came back as (%v, %v)", res, err)
	}
}
