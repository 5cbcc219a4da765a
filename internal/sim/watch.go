package sim

import (
	"sync/atomic"
	"time"
)

// Watch is an externally observable window onto a running engine, and
// the engine's own supervisor. The dispatch loop periodically publishes
// its clock and event count into atomic cells, so another goroutine (a
// live status board) can see progress without any channel handshake on
// the hot path; at the same poll the engine checks its run's Kill
// record, so an overlong or livelocked run is stopped by the engine that
// notices it.
//
// A Watch is installed with Engine.SetWatch before Run. The engine only
// touches it every 256 dispatched events (plus once at Run entry and
// exit), so the cost with a watch installed is a masked counter test per
// event; with no watch installed the dispatch loop is unchanged.
//
// The poll is keyed on events dispatched, not time, so a same-instant
// event storm still reaches it. Once the run is killed, Run dispatches
// nothing and publishes nothing more — the watch keeps the clock and
// count its engine stopped at — but still advances the clock to its
// `until` argument on exit, which keeps the sharded round protocol's
// causality guarantees intact: an aborted shard engine simply
// dispatches nothing in later windows.
type Watch struct {
	now    atomic.Int64
	events atomic.Uint64
	kill   *Kill // nil: the watch only observes

	// The stall window, touched by the engine's goroutine alone: its
	// clock at the last poll that found it moved, and when.
	last    Time
	movedAt time.Time
}

// NewWatch returns a watch whose engine enforces k's limits and stops
// when any engine sharing k trips them. A nil k observes only.
func NewWatch(k *Kill) *Watch { return &Watch{kill: k} }

// NowPs returns the most recently published engine clock, in picoseconds.
func (w *Watch) NowPs() int64 { return w.now.Load() }

// Events returns the most recently published dispatched-event count.
func (w *Watch) Events() uint64 { return w.events.Load() }

// Aborted reports whether the watch's run has been killed.
func (w *Watch) Aborted() bool { return w.kill.Tripped() != nil }

func (w *Watch) publish(now Time, events uint64) {
	w.now.Store(int64(now))
	w.events.Store(events)
}

// poll publishes the engine's progress and reports whether it must stop:
// an engine of its run has tripped the kill, or this one trips it now —
// its run is past the deadline, or its own clock has not moved for the
// stall window. A livelock churns events at one instant and so freezes
// the clock as surely as a wedge does.
func (w *Watch) poll(now Time, events uint64) bool {
	w.publish(now, events)
	k := w.kill
	if k == nil {
		return false
	}
	if k.trip.Load() != nil {
		return true
	}
	t := time.Now()
	if now != w.last || w.movedAt.Before(k.start) {
		w.last, w.movedAt = now, t
	}
	var reason string
	switch {
	case k.deadline > 0 && t.Sub(k.start) >= k.deadline:
		reason = "deadline"
	case k.stall > 0 && t.Sub(w.movedAt) >= k.stall:
		reason = "stall"
	default:
		return false
	}
	k.trip.CompareAndSwap(nil, &Trip{Reason: reason, Elapsed: t.Sub(k.start)})
	return true
}

// SetWatch installs w as the engine's progress/kill cell; nil removes it
// and restores the unobserved fast path. The watch pointer is captured at
// Run entry, so install it before starting the run.
func (e *Engine) SetWatch(w *Watch) { e.watch = w }

// Kill is the record one run's watches share: the wall-clock limits
// every engine checks at its poll, and the first trip, which stops them
// all. The trip is sticky: once set, every later Run of every engine
// sharing the record returns without dispatching, which is what lets one
// engine's trip kill a sharded run that executes as many short windows.
type Kill struct {
	deadline, stall time.Duration
	start           time.Time
	trip            atomic.Pointer[Trip]
}

// Trip is why and when a run was killed.
type Trip struct {
	Reason  string        // "deadline" or "stall"
	Elapsed time.Duration // wall clock from Arm to the trip
}

// NewKill returns an armed kill record with a wall-clock deadline and a
// stall window, each off when not positive.
func NewKill(deadline, stall time.Duration) *Kill {
	k := &Kill{deadline: deadline, stall: stall}
	k.Arm()
	return k
}

// Arm starts the limits afresh: the deadline counts from now, and so
// does every engine's stall window. Call it only while no engine
// sharing k is running. A nil k has no limits; Arm on it is a no-op.
func (k *Kill) Arm() {
	if k != nil {
		k.start = time.Now()
	}
}

// Tripped returns the run's trip, or nil while no engine has tripped
// (always, on a nil k).
func (k *Kill) Tripped() *Trip {
	if k == nil {
		return nil
	}
	return k.trip.Load()
}
