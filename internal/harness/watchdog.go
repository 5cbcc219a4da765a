package harness

import (
	"fmt"
	"sync"
	"time"

	"flexpass/internal/sim"
)

// KilledError is the panic value Run raises when a scenario watchdog
// trips: the wall-clock Deadline elapsed, or the engine horizon stopped
// advancing for StallTimeout (a wedged or livelocked run). Callers that
// supervise runs — the farm's point executor, the chaos soak runner —
// get it back from Try as the error and classify the failure by Reason
// instead of string matching.
type KilledError struct {
	Reason    string        // "deadline" or "stall"
	Elapsed   time.Duration // wall clock from run start to the kill
	HorizonPs int64         // last observed engine horizon, picoseconds
	Events    uint64        // events dispatched when killed
}

func (e *KilledError) Error() string {
	return fmt.Sprintf("harness: run killed by %s watchdog after %v (horizon %v ps, %d events)",
		e.Reason, e.Elapsed.Round(time.Millisecond), e.HorizonPs, e.Events)
}

// watchdog supervises a running engine (or shard fleet) from a wall-clock
// goroutine. It polls the horizon/events observers; when the deadline
// elapses or the horizon freezes for the stall window it records a
// KilledError and fires abort, which the engine's Watch poll honors
// within 256 dispatched events. The kill is cooperative: a goroutine
// that is not dispatching at all (blocked outside the engine) cannot be
// aborted here — that is what the farm's hard per-point backstop covers.
type watchdog struct {
	deadline time.Duration
	stall    time.Duration
	horizon  func() int64
	events   func() uint64
	abort    func()

	start time.Time
	done  chan struct{}
	wg    sync.WaitGroup

	mu   sync.Mutex
	kill *KilledError
}

// startWatchdog launches the monitor; both limits zero (or negative)
// means no supervision and returns nil (stop on a nil watchdog is a
// no-op).
func startWatchdog(deadline, stall time.Duration, horizon func() int64, events func() uint64, abort func()) *watchdog {
	if deadline <= 0 && stall <= 0 {
		return nil
	}
	wd := &watchdog{
		deadline: deadline,
		stall:    stall,
		horizon:  horizon,
		events:   events,
		abort:    abort,
		start:    time.Now(),
		done:     make(chan struct{}),
	}
	// Poll at ~1/8 of the tightest limit so a trip is detected promptly
	// without busy-waiting, clamped to keep very tight or very loose
	// limits sane.
	tightest := deadline
	if tightest <= 0 || (stall > 0 && stall < tightest) {
		tightest = stall
	}
	interval := tightest / 8
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	if interval > 250*time.Millisecond {
		interval = 250 * time.Millisecond
	}
	wd.wg.Add(1)
	go wd.monitor(interval)
	return wd
}

func (wd *watchdog) monitor(interval time.Duration) {
	defer wd.wg.Done()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	lastHorizon := wd.horizon()
	lastAdvance := wd.start
	for {
		select {
		case <-wd.done:
			return
		case <-tick.C:
		}
		now := time.Now()
		h := wd.horizon()
		if h != lastHorizon {
			lastHorizon = h
			lastAdvance = now
		}
		var reason string
		switch {
		case wd.deadline > 0 && now.Sub(wd.start) >= wd.deadline:
			reason = "deadline"
		case wd.stall > 0 && now.Sub(lastAdvance) >= wd.stall:
			// Keyed on the horizon alone: a livelocked run dispatches
			// events forever at one instant, and a wedged one dispatches
			// nothing — both freeze the horizon.
			reason = "stall"
		default:
			continue
		}
		wd.mu.Lock()
		wd.kill = &KilledError{
			Reason:    reason,
			Elapsed:   now.Sub(wd.start),
			HorizonPs: h,
			Events:    wd.events(),
		}
		wd.mu.Unlock()
		wd.abort()
		return
	}
}

// stop shuts the monitor down and returns the kill record, if any. Safe
// on a nil watchdog.
func (wd *watchdog) stop() *KilledError {
	if wd == nil {
		return nil
	}
	close(wd.done)
	wd.wg.Wait()
	wd.mu.Lock()
	defer wd.mu.Unlock()
	return wd.kill
}

// fleet is the run's progress cells, one sim.Watch per engine: what the
// watchdog and the live board read from outside the engine goroutines.
type fleet []*sim.Watch

// horizonPs is the fleet-minimum published engine clock: the simulated
// time every engine has reached.
func (f fleet) horizonPs() int64 {
	min := f[0].NowPs()
	for _, w := range f[1:] {
		if h := w.NowPs(); h < min {
			min = h
		}
	}
	return min
}

// events sums the engines' published dispatch counts.
func (f fleet) events() uint64 {
	var n uint64
	for _, w := range f {
		n += w.Events()
	}
	return n
}

// abort stops every engine of the fleet.
func (f fleet) abort() {
	for _, w := range f {
		w.Abort()
	}
}
