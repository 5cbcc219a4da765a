package harness

import (
	"errors"
	"testing"
	"time"

	"flexpass/internal/sim"
)

// killedSession opens sc, lets chain seed its engines, and runs it to
// the end expecting a limit to kill it; it returns the kill.
func killedSession(t *testing.T, sc Scenario, chain func(*Session)) *KilledError {
	t.Helper()
	s := Open(sc)
	chain(s)
	return runExpectKilled(t, func() { s.Run(sc.Duration + sc.Drain) })
}

// endless keeps eng busy for ever: every event schedules the next step
// later, so step 0 is a livelock at at and a positive step a clock that
// always advances.
func endless(eng *sim.Engine, at, step sim.Time) {
	var next func()
	next = func() { eng.After(step, next) }
	eng.At(at, next)
}

// TestWatchdogDeadline: a run exceeding the wall-clock deadline is
// killed with Reason "deadline" even while its clock advances.
func TestWatchdogDeadline(t *testing.T) {
	sc := BaseScenario(false)
	sc.Deadline = 30 * time.Millisecond
	// Seconds of events: a run the deadline misses ends and fails.
	ke := killedSession(t, sc, func(s *Session) { endless(s.Engine(), 0, 10*sim.Nanosecond) })
	if ke.Reason != "deadline" {
		t.Fatalf("kill reason %q, want deadline", ke.Reason)
	}
	if ke.Elapsed < 30*time.Millisecond {
		t.Errorf("killed after %v, before the %v deadline", ke.Elapsed, 30*time.Millisecond)
	}
}

// stallAt is where the stall tests livelock an engine; stallLimits are
// their limits, with a deadline so a missed stall fails instead of
// hanging.
const stallAt = 100 * sim.Microsecond

func stallLimits(sc *Scenario) {
	sc.StallTimeout = 40 * time.Millisecond
	sc.Deadline = 10 * time.Second
}

// TestWatchdogStall: end to end on one plane, a real session livelocked
// at one instant — events churning, clock frozen — is killed by the
// stall limit, and the kill carries the instant it froze at.
func TestWatchdogStall(t *testing.T) {
	sc := BaseScenario(false)
	stallLimits(&sc)
	ke := killedSession(t, sc, func(s *Session) { endless(s.Engine(), stallAt, 0) })
	if ke.Reason != "stall" {
		t.Fatalf("kill reason %q, want stall", ke.Reason)
	}
	if ke.HorizonPs != int64(stallAt) || ke.Events == 0 {
		t.Errorf("kill recorded horizon %d after %d events, want %d after some", ke.HorizonPs, ke.Events, int64(stallAt))
	}
}

// TestWatchdogStallSharded: the same livelock on one engine of a
// two-shard run trips the stall limit there, and that trip stops the
// other engine too: Run returns and panics with the fleet-minimum
// horizon, no later than the frozen instant.
func TestWatchdogStallSharded(t *testing.T) {
	sc := BaseScenario(false)
	sc.Shards = 2
	stallLimits(&sc)
	ke := killedSession(t, sc, func(s *Session) {
		if len(s.planes) != 2 {
			t.Fatalf("session has %d planes, want 2", len(s.planes))
		}
		endless(s.planes[1].eng, stallAt, 0)
	})
	if ke.Reason != "stall" {
		t.Fatalf("kill reason %q, want stall", ke.Reason)
	}
	if ke.HorizonPs <= 0 || ke.HorizonPs > int64(stallAt) || ke.Events == 0 {
		t.Errorf("kill recorded horizon %d after %d events, want in (0, %d] after some", ke.HorizonPs, ke.Events, int64(stallAt))
	}
}

// TestWatchdogAdvancingHorizonSurvives: a run whose clock keeps moving
// outlives its stall window many times over and is never killed.
func TestWatchdogAdvancingHorizonSurvives(t *testing.T) {
	sc := BaseScenario(false)
	sc.StallTimeout = 20 * time.Millisecond
	s := Open(sc)
	eng := s.Engine()
	var slow func()
	slow = func() {
		time.Sleep(time.Millisecond)
		eng.After(10*sim.Microsecond, slow)
	}
	eng.At(0, slow)
	start := time.Now()
	s.Run(sim.Millisecond) // a hundred slow steps, each 10 µs on
	if took := time.Since(start); took < 2*sc.StallTimeout {
		t.Fatalf("run took %v, not long enough to test a %v stall window", took, sc.StallTimeout)
	}
}

// TestWatchdogDisabled: both limits zero means no kill record and, with
// no live board either, no watch on any engine.
func TestWatchdogDisabled(t *testing.T) {
	for _, shards := range []int{0, 2} {
		sc := BaseScenario(false)
		sc.Shards = shards
		if s := Open(sc); s.kill != nil || s.watches != nil {
			t.Errorf("shards %d: a run with no limits has kill %v and %d watches", shards, s.kill, len(s.watches))
		}
	}
}

// runExpectKilled calls run expecting a limit to panic with a
// *KilledError, and returns it.
func runExpectKilled(t *testing.T, run func()) (ke *KilledError) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("run finished; expected a watchdog kill")
		}
		var ok bool
		if ke, ok = r.(*KilledError); !ok {
			panic(r)
		}
	}()
	run()
	return nil
}

// TestScenarioDeadlineKillsRun: end to end on the single-engine path —
// a scenario with a tiny wall-clock deadline dies with a typed
// *KilledError carrying the sim-clock position it died at.
func TestScenarioDeadlineKillsRun(t *testing.T) {
	sc := BaseScenario(false)
	sc.Duration = 20 * sim.Millisecond
	sc.Drain = 50 * sim.Millisecond
	sc.Deadline = time.Millisecond
	ke := runExpectKilled(t, func() { Run(sc) })
	if ke.Reason != "deadline" {
		t.Fatalf("kill reason %q, want deadline", ke.Reason)
	}
	if ke.HorizonPs <= 0 || ke.Events == 0 {
		t.Errorf("kill carries no progress snapshot: %+v", ke)
	}
	var asErr *KilledError
	if !errors.As(error(ke), &asErr) {
		t.Error("KilledError does not satisfy errors.As")
	}
}

// TestScenarioDeadlineKillsShardedRun: the same contract on the
// parallel-engine path — all shard engines abort and Run panics with
// the fleet-minimum horizon in the kill.
func TestScenarioDeadlineKillsShardedRun(t *testing.T) {
	sc := BaseScenario(false)
	sc.Duration = 20 * sim.Millisecond
	sc.Drain = 50 * sim.Millisecond
	sc.Shards = 2
	sc.Deadline = time.Millisecond
	ke := runExpectKilled(t, func() { Run(sc) })
	if ke.Reason != "deadline" {
		t.Fatalf("kill reason %q, want deadline", ke.Reason)
	}
}

// TestScenarioNoWatchdogByDefault: zero limits add no watchdog and
// change nothing about a normal run, which gives its golden row.
func TestScenarioNoWatchdogByDefault(t *testing.T) {
	matchGolden(t, Run(shardScenario(SchemeFlexPass, 1)), string(SchemeFlexPass))
}
