package sim

import (
	"math/rand"
	"slices"
	"testing"
)

// slotTrial drives one randomized schedule either eagerly (every node is
// an At) or lazily (most nodes only Reserve their position, and are
// materialised later — or, when their callback is a no-op, possibly
// never). Every draw from rng happens in both modes, so the two runs build
// the same schedule and hand out the same sequence numbers.
type slotTrial struct {
	e    *Engine
	rng  *rand.Rand
	lazy bool

	nodes  []*slotNode
	log    []int  // node ids (triggers as -id-1) in dispatch order
	probes []bool // "has node's position passed?" at every probe point
	elided int    // lazy mode: reserved nodes that never became events
}

type slotNode struct {
	id       int
	noop     bool
	depth    int
	reserved bool // lazy mode took Reserve instead of At
	slot     Slot
	armed    bool // lazy mode: materialised
	fired    bool
}

func (tr *slotTrial) fire(n *slotNode) {
	n.fired = true
	tr.log = append(tr.log, n.id)
	if n.noop || n.depth >= 4 {
		return
	}
	for k := tr.rng.Intn(3); k > 0; k-- {
		tr.spawn(n.depth + 1)
	}
}

// probe records whether n's position has passed — eagerly that is "its
// event has fired", lazily it is Engine.Passed — and, in lazy mode,
// materialises a still-reachable slot when arm says so.
func (tr *slotTrial) probe(n *slotNode, arm bool) {
	if !tr.lazy || !n.reserved {
		tr.probes = append(tr.probes, n.fired)
		return
	}
	passed := tr.e.Passed(n.slot)
	tr.probes = append(tr.probes, passed)
	if arm && !passed && !n.armed {
		n.armed = true
		tr.e.AtSlot(n.slot, func() { tr.fire(n) })
	}
}

// spawn adds one node at a nearby instant (ties are the common case) plus
// a trigger event that probes it from somewhere around that instant, the
// way a port's kick probes its tx-done slot. One node in four is a ranked
// event, the way a link delivery is: scheduled with AtRank in both modes,
// it sorts after its instant's unranked events, and what it schedules for
// its own instant takes its rank.
func (tr *slotTrial) spawn(depth int) {
	e := tr.e
	n := &slotNode{id: len(tr.nodes), depth: depth, noop: tr.rng.Intn(2) == 0}
	tr.nodes = append(tr.nodes, n)
	at := e.Now() + Time(tr.rng.Intn(4))
	trig := e.Now() + Time(tr.rng.Intn(int(at-e.Now())+2)) // up to one past at
	takeSlot := tr.rng.Intn(3) > 0
	var rank uint32
	if tr.rng.Intn(4) == 0 {
		rank = 1 + uint32(tr.rng.Intn(3))
	}

	switch {
	case rank > 0:
		e.AtRank(at, rank, func() { tr.fire(n) })
	case tr.lazy && takeSlot:
		n.reserved = true
		n.slot = e.Reserve(at)
	default:
		e.At(at, func() { tr.fire(n) })
	}
	e.At(trig, func() {
		tr.log = append(tr.log, -n.id-1)
		tr.probe(n, true)
	})
	// A callback with effects must not be lost: unless the trigger is
	// certain to precede it, materialise now — after the trigger took the
	// next sequence number, so AtSlot really does insert out of order.
	if !n.noop && trig >= at {
		tr.probe(n, true)
	}
}

func runSlotTrial(seed int64, lazy bool) *slotTrial {
	tr := &slotTrial{e: NewEngine(seed), rng: rand.New(rand.NewSource(seed)), lazy: lazy}
	for w := 0; w < 12; w++ {
		for k := tr.rng.Intn(4); k > 0; k-- {
			tr.spawn(0)
		}
		// Windows of 0–2 ps: slots land before, on and after the horizon.
		tr.e.Run(tr.e.Now() + Time(tr.rng.Intn(3)))
		// Between Runs: probe (and sometimes materialise) arbitrary nodes.
		for k := tr.rng.Intn(3); k > 0 && len(tr.nodes) > 0; k-- {
			n := tr.nodes[tr.rng.Intn(len(tr.nodes))]
			tr.probe(n, n.noop && tr.rng.Intn(2) == 0)
		}
	}
	tr.e.Run(tr.e.Now() + Microsecond)
	for _, n := range tr.nodes {
		if n.reserved && !n.armed {
			tr.elided++
		}
	}
	return tr
}

// TestSlotDifferentialOrder is the exactness argument for lazy events: a
// schedule whose no-op events are reserved and dropped dispatches every
// surviving callback in the order the fully eager schedule does, and
// Passed answers exactly "would that event have fired by now" — ranked
// events included.
func TestSlotDifferentialOrder(t *testing.T) {
	elided := 0
	for seed := int64(1); seed <= 300; seed++ {
		eager, lazy := runSlotTrial(seed, false), runSlotTrial(seed, true)
		if len(eager.nodes) != len(lazy.nodes) {
			t.Fatalf("seed %d: schedules diverged: %d vs %d nodes", seed, len(eager.nodes), len(lazy.nodes))
		}
		var want []int
		for _, id := range eager.log {
			if id < 0 || lazy.nodes[id].fired {
				want = append(want, id)
			}
		}
		if !slices.Equal(lazy.log, want) {
			t.Fatalf("seed %d: lazy run dispatched\n%v\neager order of the same callbacks is\n%v", seed, lazy.log, want)
		}
		for i, n := range eager.nodes {
			if !n.fired {
				t.Fatalf("seed %d: eager node %d never fired", seed, i)
			}
			if !n.noop && !lazy.nodes[i].fired {
				t.Fatalf("seed %d: node %d has effects but was elided", seed, i)
			}
		}
		if !slices.Equal(lazy.probes, eager.probes) {
			t.Fatalf("seed %d: Passed answered\n%v\neager events had fired\n%v", seed, lazy.probes, eager.probes)
		}
		if got, want := lazy.e.Processed, eager.e.Processed-uint64(lazy.elided); got != want {
			t.Fatalf("seed %d: lazy run processed %d events, want %d", seed, got, want)
		}
		elided += lazy.elided
	}
	if elided == 0 {
		t.Fatal("no slot was ever left unmaterialised: the test exercises nothing")
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

// TestSlotSameInstantAsDispatcher pins the tie rule: at the dispatching
// event's own instant, positions before its sequence number have passed
// and positions after it have not.
func TestSlotSameInstantAsDispatcher(t *testing.T) {
	e := NewEngine(1)
	const at = 5 * Nanosecond
	var got []string
	before := e.Reserve(at)
	var after Slot
	e.At(at, func() {
		got = append(got, "dispatcher")
		if !e.Passed(before) {
			t.Error("slot ahead of the dispatcher at the same instant has not passed")
		}
		if e.Passed(after) {
			t.Error("slot behind the dispatcher at the same instant has passed")
		}
		mustPanic(t, "AtSlot on a passed slot", func() { e.AtSlot(before, func() {}) })
		e.AtSlot(after, func() {
			got = append(got, "after")
			if !e.Passed(after) {
				t.Error("a dispatching slot must read as passed")
			}
		})
	})
	after = e.Reserve(at)
	e.At(at, func() { got = append(got, "tail") })
	e.Run(Second)
	if want := []string{"dispatcher", "after", "tail"}; !slices.Equal(got, want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
}

// TestAtRankOrder pins the instant order: unranked events first, by
// sequence, then ranked ones by rank whatever their sequence; an event
// scheduled for the current instant by a ranked one takes its rank, so it
// fires right after it, before the next rank.
func TestAtRankOrder(t *testing.T) {
	e := NewEngine(1)
	const at = 5 * Nanosecond
	var got []string
	e.AtRank(at, 2, func() { got = append(got, "rank2") })
	e.AtRank(at, 1, func() {
		got = append(got, "rank1")
		e.At(at, func() { got = append(got, "rank1-child") })
	})
	e.At(at, func() { got = append(got, "rank0") })
	e.Run(Second)
	if want := []string{"rank0", "rank1", "rank1-child", "rank2"}; !slices.Equal(got, want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
	mustPanic(t, "AtRank at the reserved top rank", func() { e.AtRank(Second+1, maxRank, func() {}) })
}

// TestSlotAcrossRuns covers Passed outside the dispatch loop: before the
// first Run, between two Runs, and exactly at Run's horizon.
func TestSlotAcrossRuns(t *testing.T) {
	e := NewEngine(1)
	if !e.Passed(Slot{}) {
		t.Fatal("zero Slot must read as passed on a fresh engine")
	}
	first := e.Reserve(0)
	if e.Passed(first) {
		t.Fatal("slot at time 0 passed before the first Run")
	}
	horizon := e.Reserve(10 * Nanosecond)
	later := e.Reserve(20 * Nanosecond)
	e.Run(10 * Nanosecond)
	if !e.Passed(first) || !e.Passed(horizon) {
		t.Fatal("Run(until) must pass every slot at or before until")
	}
	if e.Passed(later) {
		t.Fatal("slot beyond the horizon passed")
	}
	mustPanic(t, "AtSlot at the passed horizon", func() { e.AtSlot(horizon, func() {}) })

	// Taken between Runs at the current instant: still ahead of us.
	fired := false
	fresh := e.Reserve(e.Now())
	if e.Passed(fresh) {
		t.Fatal("slot taken after Run returned reads as passed")
	}
	e.AtSlot(fresh, func() { fired = true })
	e.Run(e.Now())
	if !fired || !e.Passed(fresh) {
		t.Fatalf("slot at now between Runs: fired=%v passed=%v", fired, e.Passed(fresh))
	}
	mustPanic(t, "Reserve in the past", func() { e.Reserve(e.Now() - 1) })
}

// TestSlotTimerStop: a materialised slot is an ordinary event — Stop
// removes it, and the position can be materialised again.
func TestSlotTimerStop(t *testing.T) {
	e := NewEngine(1)
	var got []int
	s := e.Reserve(Microsecond)
	e.At(Microsecond, func() { got = append(got, 2) })
	tm := e.AtSlot(s, func() { got = append(got, -1) })
	if !tm.Pending() || e.Pending() != 2 {
		t.Fatalf("materialised slot not pending (Pending=%d)", e.Pending())
	}
	if !tm.Stop() || tm.Stop() || e.Pending() != 1 {
		t.Fatalf("Stop on a materialised slot misbehaved (Pending=%d)", e.Pending())
	}
	e.AtSlot(s, func() { got = append(got, 1) })
	e.Run(Second)
	if !slices.Equal(got, []int{1, 2}) {
		t.Fatalf("order = %v, want [1 2]", got)
	}
}
