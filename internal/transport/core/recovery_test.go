package core

import (
	"testing"

	"flexpass/internal/sim"
)

const testRTO = sim.Millisecond

// testOwner stands in for a sender: it embeds its timer by value and
// implements RecoveryOwner, as the transports do.
type testOwner struct {
	RecoveryTimer
	fired int
	idle  bool
	// backOff makes Expire bump the backoff and re-arm.
	backOff bool
}

func (o *testOwner) BaseRTO() sim.Time { return testRTO }
func (o *testOwner) Idle() bool        { return o.idle }
func (o *testOwner) Expire() {
	o.fired++
	if o.backOff {
		o.Bump()
		o.Touch()
	}
}

func newTestTimer(eng *sim.Engine, cfg RecoveryConfig) *testOwner {
	o := &testOwner{}
	o.Init(eng, o, cfg)
	return o
}

func TestRecoveryTimerFiresAfterSilence(t *testing.T) {
	eng := sim.NewEngine(1)
	rt := newTestTimer(eng, RecoveryConfig{MaxShift: 4})
	rt.Touch()
	eng.Run(testRTO - 1)
	if rt.fired != 0 {
		t.Fatal("fired before the deadline")
	}
	eng.Run(testRTO + 1)
	if rt.fired != 1 {
		t.Fatalf("fired = %d, want 1", rt.fired)
	}
}

func TestRecoveryTimerLazyReschedule(t *testing.T) {
	eng := sim.NewEngine(1)
	rt := newTestTimer(eng, RecoveryConfig{MaxShift: 4})
	rt.Touch()
	// Progress keeps arriving: each Touch restamps, and the single pending
	// check re-derives the live deadline instead of firing stale.
	for i := 1; i <= 5; i++ {
		eng.At(sim.Time(i)*testRTO/2, rt.Touch)
	}
	eng.Run(3 * testRTO)
	if rt.fired != 0 {
		t.Fatalf("fired = %d despite continuous progress", rt.fired)
	}
	eng.Run(5 * testRTO)
	if rt.fired != 1 {
		t.Fatalf("fired = %d once progress stopped, want 1", rt.fired)
	}
}

func TestRecoveryTimerBackoffShift(t *testing.T) {
	eng := sim.NewEngine(1)
	rt := newTestTimer(eng, RecoveryConfig{MaxShift: 2})
	rt.backOff = true
	rt.Touch()
	// Deadlines at 1, then +2, then +4, then capped at +4: fire times
	// 1ms, 3ms, 7ms, 11ms, 15ms...
	eng.Run(11*testRTO + 1)
	if rt.fired != 4 {
		t.Fatalf("fired = %d by 11ms with capped backoff, want 4", rt.fired)
	}
	if rt.Backoff() != 4 {
		t.Fatalf("Backoff = %d, want 4", rt.Backoff())
	}
	rt.Reset()
	if rt.Backoff() != 0 {
		t.Fatal("Reset did not clear backoff")
	}
}

func TestRecoveryTimerIdleSuppression(t *testing.T) {
	eng := sim.NewEngine(1)
	rt := newTestTimer(eng, RecoveryConfig{MaxShift: 4, ShiftOnArm: true})
	rt.Touch()
	rt.idle = true // flow finishes before the check wakes
	eng.Run(10 * testRTO)
	if rt.fired != 0 {
		t.Fatalf("fired = %d on an idle flow, want 0", rt.fired)
	}
	// Touch while idle must not arm at all.
	rt.Touch()
	eng.Run(20 * testRTO)
	if rt.fired != 0 {
		t.Fatalf("fired = %d after idle Touch, want 0", rt.fired)
	}
}
