// Package sim provides a deterministic discrete-event simulation engine.
//
// Time is an integer number of picoseconds. Events at one instant fire by
// rank — 0, or 1 + link id for link deliveries (AtRank) — then in the order
// their positions were taken, by At or by Reserve for an event materialised
// later with AtSlot. Each entity draws from its own Stream of (seed, id).
// Neither depends on which engine runs an entity, so a fabric partitioned
// across engines (internal/sim/shard) reproduces the one-engine run.
package sim

import (
	"fmt"
	"time"
)

// Time is a simulated instant, in picoseconds since the start of the run.
type Time int64

// Common durations expressed in picoseconds.
const (
	Picosecond  Time = 1
	Nanosecond       = 1000 * Picosecond
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros reports t as a floating-point number of microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Millis reports t as a floating-point number of milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.6fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", t.Millis())
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", t.Micros())
	default:
		return fmt.Sprintf("%dns", int64(t)/int64(Nanosecond))
	}
}

// Handler is what an event calls when it fires. An owner that schedules
// the same callback again and again implements it on itself, or on a
// named pointer type over itself (type pacerCredit Pacer), and schedules
// that pointer: a pointer converts to an interface in place, so binding
// the callback allocates nothing, where a method value is a heap closure.
type Handler interface{ Fire() }

// Func adapts a closure to Handler. A func value converts to an interface
// in place, so the adapter allocates nothing beyond the closure itself.
type Func func()

// Fire calls f.
func (f Func) Fire() { f() }

// event is one scheduled callback. Events are owned by the engine and
// recycled through a free list; gen distinguishes incarnations so a stale
// Timer for a recycled event cannot cancel its successor.
type event struct {
	at   Time
	key  uint64 // rank<<seqBits | sequence: the order within an instant
	h    Handler
	gen  uint64
	idx  int32 // heap index; -1 when not in the heap
	comp uint8 // Component that scheduled the event (attribution only)
}

// Timer is a handle to a scheduled event that can be cancelled. The zero
// Timer is valid and Stop on it reports false.
type Timer struct {
	eng *Engine
	ev  *event
	gen uint64
}

// Stop cancels the timer, removing the event from the schedule
// immediately (it no longer counts toward Engine.Pending). It reports
// whether the event had not yet fired and had not already been stopped.
func (t *Timer) Stop() bool {
	if t == nil || t.ev == nil || t.ev.gen != t.gen {
		return false
	}
	ev := t.ev
	t.ev = nil
	t.eng.remove(ev)
	t.eng.recycle(ev)
	return true
}

// Pending reports whether the event is still scheduled.
func (t *Timer) Pending() bool {
	return t != nil && t.ev != nil && t.ev.gen == t.gen
}

// Engine is a single-threaded discrete-event scheduler.
//
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	now     Time
	seed    int64
	seq     uint64   // next sequence number
	cur     uint64   // key of the dispatching event; between Runs, above every key taken
	events  []*event // 4-ary min-heap ordered by (at, key)
	free    []*event // recycled events
	slab    []event  // events not yet handed out
	stopped bool

	// Component attribution. curComp labels whoever is currently
	// scheduling: events stamped in At inherit it, and Run restores it
	// from the dispatched event, so a callback's own scheduling is
	// attributed to the component that scheduled the callback. This is
	// pure metadata — (at, key) ordering, and therefore simulation
	// behaviour, never depends on it.
	curComp   Component
	compNames []string

	// profile, when set, observes every dispatched event's component and
	// wall-clock duration. Nil keeps the dispatch loop on the unprofiled
	// fast path (no clock reads).
	profile func(Component, time.Duration)

	// watch, when set, receives periodic progress publications and
	// enforces its run's kill limits (see Watch). Nil keeps the dispatch
	// loop on the unobserved fast path.
	watch *Watch

	// Processed counts events dispatched so far (for perf reporting).
	Processed uint64
}

// Component identifies who scheduled an event, for profiling attribution.
// Component 0 is the generic "engine" label every engine starts with.
type Component uint8

// NewEngine returns an engine whose clock starts at zero and whose entity
// streams derive from seed. Sequence numbers start at 1 so that the zero
// Slot, which no Reserve hands out, reads as passed from the first instant.
func NewEngine(seed int64) *Engine {
	return &Engine{seed: seed, compNames: []string{"engine"}, seq: 1}
}

// NewShardEngine is NewEngine(rootSeed), kept because bench/units.go calls
// it: an engine no longer depends on the shard it drives.
func NewShardEngine(rootSeed int64, shard int) *Engine { return NewEngine(rootSeed) }

// Component interns name and returns its label. Repeated calls with the
// same name return the same Component; registering more than 255 distinct
// names panics (labels are deliberately one byte so they ride in event
// struct padding). Interning is a setup-time operation — the linear scan
// never runs on the dispatch path.
func (e *Engine) Component(name string) Component {
	for i, n := range e.compNames {
		if n == name {
			return Component(i)
		}
	}
	if len(e.compNames) > 255 {
		panic("sim: more than 256 components registered")
	}
	e.compNames = append(e.compNames, name)
	return Component(len(e.compNames) - 1)
}

// ComponentNames returns the interned component names indexed by
// Component value. The returned slice is the engine's own; don't mutate.
func (e *Engine) ComponentNames() []string { return e.compNames }

// SetComponent switches the current scheduling attribution and returns
// the previous label, so boundaries stamp with
//
//	prev := eng.SetComponent(c)
//	... schedule ...
//	eng.SetComponent(prev)
//
// Events scheduled while a component is current inherit it, as do events
// scheduled from inside their callbacks, transitively.
func (e *Engine) SetComponent(c Component) (prev Component) {
	prev = e.curComp
	e.curComp = c
	return prev
}

// SetProfile installs fn to observe every dispatched event's component
// label and wall-clock dispatch duration. Passing nil removes the hook
// and restores the unprofiled fast path. The hook must not allocate if
// the caller wants to preserve the engine's zero-alloc dispatch.
func (e *Engine) SetProfile(fn func(Component, time.Duration)) { e.profile = fn }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Stream is one entity's random stream: SplitMix64, one word held by value
// in the entity that draws from it.
type Stream struct{ s uint64 }

// Stream returns the stream of entity id, a pure function of (seed, id):
// the same whichever engine the entity runs on and whatever others draw.
func (e *Engine) Stream(id uint64) Stream { return Stream{s: mix64(mix64(uint64(e.seed)) ^ id)} }

// Float64 returns the stream's next number, uniform in [0, 1).
func (r *Stream) Float64() float64 {
	r.s += 0x9e3779b97f4a7c15
	return float64(mix64(r.s)>>11) / (1 << 53)
}

// mix64 is SplitMix64's finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

const eventSlab = 64 // events alloc carves at once

// alloc takes an event from the free list, or from a new slab when empty.
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	if len(e.slab) == 0 {
		e.slab = make([]event, eventSlab)
	}
	ev := &e.slab[0]
	e.slab = e.slab[1:]
	ev.idx = -1
	return ev
}

// recycle returns a detached event to the free list. Dropping the handler
// keeps a fired or stopped event from retaining its owner; bumping gen
// invalidates every outstanding Timer for this incarnation.
func (e *Engine) recycle(ev *event) {
	ev.h = nil
	ev.gen++
	e.free = append(e.free, ev)
}

// At schedules fn to run at absolute time t; see Schedule.
func (e *Engine) At(t Time, fn func()) Timer { return e.Schedule(t, Func(fn)) }

// Schedule schedules h to fire at absolute time t. Scheduling in the past
// panics: it always indicates a logic error in the caller.
func (e *Engine) Schedule(t Time, h Handler) Timer {
	return e.ScheduleSlot(e.Reserve(t), h)
}

// Slot is a position in dispatch order — the (time, key) pair At would
// have given an event — held without an event behind it. A caller whose
// event is usually a no-op reserves its position where it would have
// scheduled it, and materialises the event with AtSlot only once it has
// work to do: every other event keeps its key, so dispatch order is
// exactly that of the eager schedule minus the no-ops. The zero Slot has
// always passed (sequence numbers start at 1).
type Slot struct {
	at  Time
	key uint64
}

// An event's key packs its rank above a seqBits-wide sequence number, so
// less stays a two-field compare. maxRank, never handed to AtRank, ranks
// what is taken at Now between Runs, after all the last Run dispatched.
const (
	seqBits = 44
	maxRank = 1<<(64-seqBits) - 1
)

// Reserve takes the position At(t, ...) would take, scheduling nothing.
// Like At it panics when t is in the past.
func (e *Engine) Reserve(t Time) Slot { return e.reserve(t, 0) }

// reserve takes the next sequence number at t and rank, raised at the
// current instant to the dispatching event's rank: dispatch never goes back.
func (e *Engine) reserve(t Time, rank uint64) Slot {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if cur := e.cur >> seqBits; t == e.now && rank < cur {
		rank = cur
	}
	s := Slot{at: t, key: rank<<seqBits | e.seq}
	e.seq++
	return s
}

// Passed reports whether dispatch order has reached s: an event there
// would have fired already, or is the one dispatching. Between Runs that
// is every slot at or before Now taken before the last Run returned.
func (e *Engine) Passed(s Slot) bool {
	return s.at < e.now || (s.at == e.now && s.key <= e.cur)
}

// AtSlot schedules fn at a reserved position; see ScheduleSlot.
func (e *Engine) AtSlot(s Slot, fn func()) Timer { return e.ScheduleSlot(s, Func(fn)) }

// ScheduleSlot schedules h at a reserved position. It panics if s has
// passed.
func (e *Engine) ScheduleSlot(s Slot, h Handler) Timer {
	if e.Passed(s) {
		panic(fmt.Sprintf("sim: materialising slot at %v already passed at %v", s.at, e.now))
	}
	ev := e.alloc()
	ev.at = s.at
	ev.key = s.key
	ev.h = h
	ev.comp = uint8(e.curComp)
	e.push(ev)
	return Timer{eng: e, ev: ev, gen: ev.gen}
}

// AtRank schedules fn at t and rank; see ScheduleRank.
func (e *Engine) AtRank(t Time, rank uint32, fn func()) Timer {
	return e.ScheduleRank(t, rank, Func(fn))
}

// ScheduleRank schedules h at t like Schedule, after every lower rank of
// instant t whatever their sequence: link deliveries (rank 1 + link id)
// sort by the model, not by scheduling history. rank must be below
// 1<<20 - 1.
func (e *Engine) ScheduleRank(t Time, rank uint32, h Handler) Timer {
	if rank >= maxRank {
		panic(fmt.Sprintf("sim: rank %d out of range", rank))
	}
	return e.ScheduleSlot(e.reserve(t, uint64(rank)), h)
}

// After schedules fn to run d after the current time; see ScheduleAfter.
func (e *Engine) After(d Time, fn func()) Timer { return e.ScheduleAfter(d, Func(fn)) }

// ScheduleAfter schedules h to fire d after the current time (now, for a
// negative d).
func (e *Engine) ScheduleAfter(d Time, h Handler) Timer {
	if d < 0 {
		d = 0
	}
	return e.Schedule(e.now+d, h)
}

// Stop makes Run return after the currently dispatching event completes.
func (e *Engine) Stop() { e.stopped = true }

// Ticker is a handle to a periodic event created with Every.
type Ticker struct {
	eng     *Engine
	period  Time
	h       Handler
	timer   Timer
	stopped bool
}

// Every schedules fn to run every period; see ScheduleEvery.
func (e *Engine) Every(period Time, fn func()) *Ticker { return e.ScheduleEvery(period, Func(fn)) }

// ScheduleEvery schedules h to fire repeatedly, every period, starting one
// period from now. It is the engine's hook for periodic observers
// (telemetry probes, samplers): the callback runs between same-instant
// events without perturbing their relative order, so a read-only h never
// changes simulation results. Period must be positive.
func (e *Engine) ScheduleEvery(period Time, h Handler) *Ticker {
	if period <= 0 {
		panic(fmt.Sprintf("sim: Every period must be positive, got %v", period))
	}
	t := &Ticker{eng: e, period: period, h: h}
	t.schedule()
	return t
}

// tickerTick is a Ticker's own event: it fires the handler and re-arms.
type tickerTick Ticker

func (k *tickerTick) Fire() {
	t := (*Ticker)(k)
	if t.stopped {
		return
	}
	t.h.Fire()
	t.schedule()
}

func (t *Ticker) schedule() {
	t.timer = t.eng.ScheduleAfter(t.period, (*tickerTick)(t))
}

// Stop cancels the ticker; the callback will not fire again and the
// pending event is removed from the schedule immediately.
func (t *Ticker) Stop() {
	if t == nil {
		return
	}
	t.stopped = true
	t.timer.Stop()
}

// Run dispatches events in timestamp order until the queue empties, the
// clock passes until, or Stop is called. Events scheduled exactly at until
// still run.
func (e *Engine) Run(until Time) {
	e.stopped = false
	w := e.watch
	if w != nil {
		// A sticky kill makes every later Run a no-op dispatch-wise;
		// the clock still advances to until below, so sharded windows
		// keep their causality guarantees after a kill.
		if w.Aborted() {
			e.stopped = true
		} else {
			w.publish(e.now, e.Processed)
		}
	}
	for len(e.events) > 0 && !e.stopped {
		next := e.events[0]
		if next.at > until {
			break
		}
		if w != nil && e.Processed&255 == 0 && w.poll(next.at, e.Processed) {
			break
		}
		e.popMin()
		e.now = next.at
		e.cur = next.key
		h := next.h
		comp := Component(next.comp)
		// Recycle before dispatch: a callback that schedules reuses this
		// event immediately, keeping the working set hot.
		e.recycle(next)
		e.Processed++
		// The dispatching component becomes current so events the callback
		// schedules inherit its attribution.
		e.curComp = comp
		if e.profile == nil {
			h.Fire()
		} else {
			start := time.Now()
			h.Fire()
			e.profile(comp, time.Since(start))
		}
	}
	if e.now <= until {
		// Every position taken so far at or before until is behind us.
		e.now = until
		e.cur = maxRank<<seqBits | (e.seq - 1)
	}
	if w != nil && !w.Aborted() {
		w.publish(e.now, e.Processed)
	}
}

// Pending reports the number of events still scheduled: stopped timers
// leave the schedule at once, so the count is exact.
func (e *Engine) Pending() int { return len(e.events) }

// The schedule is a hand-rolled 4-ary min-heap over (at, key). Compared to
// container/heap this is monomorphic (no interface dispatch, no
// Push(any)/Pop() boxing) and shallower (log4 vs log2 levels), which is
// where the engine spends its time at fabric scale. Pop order — and
// therefore simulation behaviour — depends only on the (at, key) total
// order, never on the internal array layout.

func (e *Engine) less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.key < b.key
}

func (e *Engine) push(ev *event) {
	ev.idx = int32(len(e.events))
	e.events = append(e.events, ev)
	e.siftUp(int(ev.idx))
}

// popMin removes and returns the heap root; caller guarantees non-empty.
func (e *Engine) popMin() *event {
	h := e.events
	ev := h[0]
	n := len(h) - 1
	if n > 0 {
		h[0] = h[n]
		h[0].idx = 0
	}
	h[n] = nil
	e.events = h[:n]
	if n > 1 {
		e.siftDown(0)
	}
	ev.idx = -1
	return ev
}

// remove detaches an interior event (Timer.Stop) in O(log n).
func (e *Engine) remove(ev *event) {
	i := int(ev.idx)
	h := e.events
	n := len(h) - 1
	if i != n {
		h[i] = h[n]
		h[i].idx = int32(i)
	}
	h[n] = nil
	e.events = h[:n]
	if i != n {
		e.siftDown(i)
		e.siftUp(i)
	}
	ev.idx = -1
}

func (e *Engine) siftUp(i int) {
	h := e.events
	ev := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !e.less(ev, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].idx = int32(i)
		i = p
	}
	h[i] = ev
	ev.idx = int32(i)
}

func (e *Engine) siftDown(i int) {
	h := e.events
	n := len(h)
	ev := h[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if e.less(h[c], h[best]) {
				best = c
			}
		}
		if !e.less(h[best], ev) {
			break
		}
		h[i] = h[best]
		h[i].idx = int32(i)
		i = best
	}
	h[i] = ev
	ev.idx = int32(i)
}
