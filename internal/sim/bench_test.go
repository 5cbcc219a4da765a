package sim

import (
	"testing"
	"time"
)

// BenchmarkEventChurn measures raw scheduler throughput with a working
// set typical of a busy fabric (a few thousand pending events).
func BenchmarkEventChurn(b *testing.B) {
	e := NewEngine(1)
	const pending = 4096
	var tick func()
	n := 0
	tick = func() {
		n++
		e.After(Time(1+n%97)*Microsecond, tick)
	}
	for i := 0; i < pending; i++ {
		e.After(Time(i)*Nanosecond, tick)
	}
	b.ResetTimer()
	wall := time.Now()
	target := uint64(b.N)
	for e.Processed < target {
		e.Run(e.Now() + Millisecond)
	}
	elapsed := time.Since(wall).Seconds()
	b.ReportMetric(float64(e.Processed), "events")
	if elapsed > 0 {
		b.ReportMetric(float64(e.Processed)/elapsed, "events/sec")
	}
}

func BenchmarkTimerStop(b *testing.B) {
	e := NewEngine(1)
	for i := 0; i < b.N; i++ {
		t := e.After(Second, func() {})
		t.Stop()
		if i%4096 == 0 {
			e.Run(e.Now()) // drain cancelled placeholders
		}
	}
}

// BenchmarkEngineDispatch is the headline scheduler cost number: one
// iteration is one schedule plus one dispatch, measured at a steady
// working set, so ns/op and allocs/op read directly as ns/event and
// allocs/event. The func row schedules a closure through After, the
// handler row an owner through ScheduleAfter, the way the fabric and the
// transports do.
func BenchmarkEngineDispatch(b *testing.B) {
	b.Run("func", func(b *testing.B) {
		e := NewEngine(1)
		var tick func()
		n := 0
		tick = func() {
			n++
			e.After(Time(1+n%127)*Microsecond, tick)
		}
		benchDispatch(b, e, func(at Time) { e.After(at, tick) })
	})
	b.Run("handler", func(b *testing.B) {
		e := NewEngine(1)
		tick := &dispatchTick{e: e}
		benchDispatch(b, e, func(at Time) { e.ScheduleAfter(at, tick) })
	})
}

// dispatchTick re-arms itself on every firing, as a port or pacer does.
type dispatchTick struct {
	e *Engine
	n int
}

func (d *dispatchTick) Fire() {
	d.n++
	d.e.ScheduleAfter(Time(1+d.n%127)*Microsecond, d)
}

// benchDispatch seeds 256 self-re-arming events through arm, warms the
// heap and free list, then dispatches b.N events.
func benchDispatch(b *testing.B, e *Engine, arm func(Time)) {
	const pending = 256
	for i := 0; i < pending; i++ {
		arm(Time(i) * Nanosecond)
	}
	e.Run(e.Now() + Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	target := e.Processed + uint64(b.N)
	for e.Processed < target {
		e.Run(e.Now() + Millisecond)
	}
}

// BenchmarkTimerStopPending measures cancellation with a busy heap: every
// iteration schedules a far-out timer and stops it while thousands of
// live events churn. Pre-fix, cancelled placeholders linger until popped
// and inflate every subsequent heap operation.
func BenchmarkTimerStopPending(b *testing.B) {
	e := NewEngine(1)
	const pending = 4096
	var tick func()
	n := 0
	tick = func() {
		n++
		e.After(Time(1+n%97)*Microsecond, tick)
	}
	for i := 0; i < pending; i++ {
		e.After(Time(i)*Nanosecond, tick)
	}
	e.Run(e.Now() + Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := e.After(Second, func() {})
		t.Stop()
		if i%1024 == 0 {
			e.Run(e.Now() + Microsecond)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(e.Pending()), "pending-final")
}
