package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEngineRunsEventsInOrder(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.At(30*Nanosecond, func() { got = append(got, 3) })
	e.At(10*Nanosecond, func() { got = append(got, 1) })
	e.At(20*Nanosecond, func() { got = append(got, 2) })
	e.Run(Second)
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != Second {
		t.Fatalf("Now = %v, want %v", e.Now(), Second)
	}
}

func TestEngineSameTimeFIFO(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(5*Microsecond, func() { got = append(got, i) })
	}
	e.Run(Second)
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events not FIFO: got[%d] = %d", i, got[i])
		}
	}
}

func TestEngineAfterAccumulates(t *testing.T) {
	e := NewEngine(1)
	var hits []Time
	var step func()
	step = func() {
		hits = append(hits, e.Now())
		if len(hits) < 4 {
			e.After(100*Nanosecond, step)
		}
	}
	e.After(100*Nanosecond, step)
	e.Run(Second)
	for i, h := range hits {
		want := Time(i+1) * 100 * Nanosecond
		if h != want {
			t.Fatalf("hit %d at %v, want %v", i, h, want)
		}
	}
}

func TestEngineRunUntilStopsEarly(t *testing.T) {
	e := NewEngine(1)
	fired := false
	e.At(2*Millisecond, func() { fired = true })
	e.Run(Millisecond)
	if fired {
		t.Fatal("event beyond until fired")
	}
	if e.Now() != Millisecond {
		t.Fatalf("Now = %v, want 1ms", e.Now())
	}
	e.Run(3 * Millisecond)
	if !fired {
		t.Fatal("event not fired after extending run")
	}
}

func TestEngineEventAtBoundaryFires(t *testing.T) {
	e := NewEngine(1)
	fired := false
	e.At(Millisecond, func() { fired = true })
	e.Run(Millisecond)
	if !fired {
		t.Fatal("event exactly at until must fire")
	}
}

func TestTimerStop(t *testing.T) {
	e := NewEngine(1)
	fired := false
	tm := e.At(Microsecond, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop on pending timer should report true")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report false")
	}
	e.Run(Second)
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestStopHaltsRun(t *testing.T) {
	e := NewEngine(1)
	n := 0
	for i := 1; i <= 10; i++ {
		e.At(Time(i)*Microsecond, func() {
			n++
			if n == 3 {
				e.Stop()
			}
		})
	}
	e.Run(Second)
	if n != 3 {
		t.Fatalf("processed %d events after Stop, want 3", n)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine(1)
	e.At(Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		e.At(Microsecond, func() {})
	})
	e.Run(Second)
}

func TestDeterministicReplay(t *testing.T) {
	run := func(seed int64) []int64 {
		e := NewEngine(seed)
		rng := e.Stream(1)
		var trace []int64
		var tick func()
		tick = func() {
			trace = append(trace, int64(e.Now()))
			if len(trace) < 200 {
				d := Time(rng.Float64()*1000+1) * Nanosecond
				e.After(d, tick)
			}
		}
		e.After(0, tick)
		e.Run(Second)
		return trace
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// Property: regardless of insertion order, events fire in nondecreasing
// time order and every scheduled event fires.
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		e := NewEngine(7)
		var fired []Time
		for _, d := range delays {
			at := Time(d) * Nanosecond
			e.At(at, func() { fired = append(fired, e.Now()) })
		}
		e.Run(Time(1<<16) * Nanosecond)
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{2 * Second, "2.000000s"},
		{3 * Millisecond, "3.000ms"},
		{4 * Microsecond, "4.000us"},
		{5 * Nanosecond, "5ns"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	e := NewEngine(1)
	tm := e.After(Microsecond, func() {})
	e.Run(Second)
	if tm.Stop() {
		t.Fatal("Stop after fire must report false")
	}
}

func TestPendingCount(t *testing.T) {
	e := NewEngine(1)
	if e.Pending() != 0 {
		t.Fatal("fresh engine has pending events")
	}
	e.After(Microsecond, func() {})
	e.After(Millisecond, func() {})
	if e.Pending() != 2 {
		t.Fatalf("pending = %d", e.Pending())
	}
	e.Run(Second)
	if e.Pending() != 0 {
		t.Fatalf("pending after drain = %d", e.Pending())
	}
}

func TestNilTimerStop(t *testing.T) {
	var tm *Timer
	if tm.Stop() {
		t.Fatal("nil timer Stop must be false")
	}
}

func TestEveryTicks(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	e.Every(10*Microsecond, func() { fired = append(fired, e.Now()) })
	e.Run(35 * Microsecond)
	if len(fired) != 3 {
		t.Fatalf("ticks = %d, want 3", len(fired))
	}
	for i, at := range fired {
		if want := Time(i+1) * 10 * Microsecond; at != want {
			t.Fatalf("tick %d at %v, want %v", i, at, want)
		}
	}
}

func TestEveryStop(t *testing.T) {
	e := NewEngine(1)
	n := 0
	var tk *Ticker
	tk = e.Every(10*Microsecond, func() {
		n++
		if n == 2 {
			tk.Stop()
		}
	})
	e.Run(Second)
	if n != 2 {
		t.Fatalf("ticks after Stop = %d, want 2", n)
	}
	if e.Pending() != 0 {
		t.Fatalf("stopped ticker left %d events queued", e.Pending())
	}
	var nilTk *Ticker
	nilTk.Stop() // must not panic
}

func TestEveryBadPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Every(0) must panic")
		}
	}()
	NewEngine(1).Every(0, func() {})
}
