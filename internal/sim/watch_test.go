package sim

import (
	"sync"
	"testing"
	"time"
)

// TestWatchPublishes: the engine publishes clock and event counts into
// the watch at Run boundaries, so an external monitor sees progress
// without touching engine internals.
func TestWatchPublishes(t *testing.T) {
	e := NewEngine(1)
	w := &Watch{}
	e.SetWatch(w)
	fired := 0
	e.At(10, func() { fired++ })
	e.At(20, func() { fired++ })
	e.Run(100)
	if fired != 2 {
		t.Fatalf("dispatched %d events, want 2", fired)
	}
	if got := w.NowPs(); got != 100 {
		t.Errorf("watch clock = %d, want 100 (Run exit publishes `until`)", got)
	}
	if got := w.Events(); got != 2 {
		t.Errorf("watch events = %d, want 2", got)
	}
}

// TestWatchAbortStopsLivelock: a handler that perpetually reschedules
// itself at the same instant never lets Run(until) return on its own.
// The engine's own watch poll must notice its clock has stopped and
// break the loop — this is exactly the harness stall kill's path.
func TestWatchAbortStopsLivelock(t *testing.T) {
	e := NewEngine(1)
	k := NewKill(0, 20*time.Millisecond)
	w := NewWatch(k)
	e.SetWatch(w)
	var loop func()
	loop = func() { e.At(5, loop) } // same-instant self-reschedule
	e.At(5, loop)

	done := make(chan struct{})
	go func() {
		e.Run(1000)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the stall limit did not stop the livelocked engine")
	}
	if !w.Aborted() {
		t.Error("watch lost its abort flag")
	}
	if trip := k.Tripped(); trip == nil || trip.Reason != "stall" || trip.Elapsed < 20*time.Millisecond {
		t.Errorf("trip = %+v, want a stall after at least 20ms", trip)
	}
	if w.NowPs() != 5 || w.Events() < 10_000 {
		t.Errorf("watch kept clock %d after %d events, want the livelock's 5 after a spin", w.NowPs(), w.Events())
	}
	if e.Now() != 1000 {
		t.Errorf("aborted Run left clock at %v, want 1000 (shard causality requires the clock to advance)", e.Now())
	}
}

// TestWatchAbortSticky: once killed, every later Run dispatches
// nothing but still advances the clock to `until` — an aborted shard
// engine must keep satisfying the round protocol's time guarantees.
func TestWatchAbortSticky(t *testing.T) {
	e := NewEngine(1)
	k := NewKill(time.Nanosecond, 0)
	w := NewWatch(k)
	e.SetWatch(w)
	time.Sleep(time.Millisecond) // past the deadline before Run: the first poll trips
	fired := false
	e.At(10, func() { fired = true })
	e.Run(50)
	if fired {
		t.Error("aborted engine dispatched an event")
	}
	if trip := k.Tripped(); trip == nil || trip.Reason != "deadline" {
		t.Errorf("trip = %+v, want a deadline", trip)
	}
	if e.Now() != 50 {
		t.Errorf("aborted Run left clock at %v, want 50", e.Now())
	}
	e.Run(80)
	if e.Now() != 80 {
		t.Errorf("second aborted Run left clock at %v, want 80", e.Now())
	}
}

// TestKillStopsFleetMate: two engines share one kill record, as a
// sharded run's do. One livelocks and trips the stall limit; the other,
// whose clock keeps advancing and so never trips on its own, stops at
// its next poll.
func TestKillStopsFleetMate(t *testing.T) {
	k := NewKill(0, 20*time.Millisecond)
	stuck, mate := NewEngine(1), NewEngine(1)
	ws, wm := NewWatch(k), NewWatch(k)
	stuck.SetWatch(ws)
	mate.SetWatch(wm)
	var spin, walk func()
	spin = func() { stuck.At(5, spin) }
	walk = func() { mate.After(1, walk) }
	stuck.At(5, spin)
	mate.At(5, walk)

	const until = Time(1) << 60
	var wg sync.WaitGroup
	for _, e := range []*Engine{stuck, mate} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.Run(until)
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the stalled engine's trip did not stop its fleet-mate")
	}
	if trip := k.Tripped(); trip == nil || trip.Reason != "stall" {
		t.Fatalf("trip = %+v, want a stall", trip)
	}
	if !wm.Aborted() || wm.NowPs() <= 5 || wm.NowPs() == int64(until) {
		t.Errorf("fleet-mate watch: aborted %v at %d, want aborted past 5 and before %d", wm.Aborted(), wm.NowPs(), until)
	}
	if ws.NowPs() != 5 {
		t.Errorf("stalled engine's watch kept clock %d, want 5", ws.NowPs())
	}
	if stuck.Now() != until || mate.Now() != until {
		t.Errorf("aborted engines at %v and %v, want both at until", stuck.Now(), mate.Now())
	}
}

// TestWatchWithoutLimitsNeverTrips: a same-instant storm that holds the
// clock for longer than any stall window runs to its end under a watch
// whose record has no limits, and under one with no record at all.
func TestWatchWithoutLimitsNeverTrips(t *testing.T) {
	for _, k := range []*Kill{NewKill(0, 0), nil} {
		e := NewEngine(1)
		w := NewWatch(k)
		e.SetWatch(w)
		start := time.Now()
		n := 0
		var storm func()
		storm = func() {
			if n++; time.Since(start) < 30*time.Millisecond {
				e.At(5, storm)
			}
		}
		e.At(5, storm)
		e.Run(100)
		if w.Aborted() || k.Tripped() != nil {
			t.Fatalf("kill %v: a watch with no limits tripped", k)
		}
		if w.Events() != uint64(n) || w.NowPs() != 100 {
			t.Errorf("kill %v: watch published %d events at %d, want all %d at 100", k, w.Events(), w.NowPs(), n)
		}
	}
}
