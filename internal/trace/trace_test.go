package trace

import (
	"strings"
	"testing"

	"flexpass/internal/sim"
)

func TestNilRingNoOps(t *testing.T) {
	var r *Ring
	r.Add(Drop, 1, 2, "x") // must not panic
	r.AddWindowCut(1, 2, "timeout", 3)
	if r.Len() != 0 || r.Events() != nil || r.Overwritten() != 0 {
		t.Fatal("nil ring must be empty")
	}
	r.Each(func(Event) { t.Fatal("nil ring visited an event") })
}

func TestAddWindowCutNote(t *testing.T) {
	r := NewRing(nil, 4)
	r.AddWindowCut(7, 3, "timeout", 12.25)
	r.AddWindowCut(7, 4, "rack", 2)
	evs := r.Events()
	if len(evs) != 2 || evs[0] != (Event{Kind: WindowCut, Flow: 7, Seq: 3, Note: "timeout cwnd=12.2"}) ||
		evs[1].Note != "rack cwnd=2.0" {
		t.Fatalf("window cuts recorded as %+v", evs)
	}
}

func TestRingRecordsInOrder(t *testing.T) {
	eng := sim.NewEngine(1)
	r := NewRing(eng, 10)
	for i := 0; i < 5; i++ {
		i := i
		eng.At(sim.Time(i)*sim.Microsecond, func() {
			r.Add(Retransmit, uint64(i), int64(i), "")
		})
	}
	eng.Run(sim.Second)
	evs := r.Events()
	if len(evs) != 5 {
		t.Fatalf("len = %d", len(evs))
	}
	for i, ev := range evs {
		if ev.Flow != uint64(i) || ev.At != sim.Time(i)*sim.Microsecond {
			t.Fatalf("event %d out of order: %+v", i, ev)
		}
	}
}

func TestRingWraps(t *testing.T) {
	r := NewRing(nil, 4)
	for i := 0; i < 10; i++ {
		r.Add(Drop, uint64(i), 0, "")
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("len = %d, want 4", len(evs))
	}
	if evs[0].Flow != 6 || evs[3].Flow != 9 {
		t.Fatalf("wrapped order wrong: %d..%d", evs[0].Flow, evs[3].Flow)
	}
	if r.Overwritten() != 6 {
		t.Fatalf("overwritten = %d", r.Overwritten())
	}
	// Each reads the ring in place, in the order Events copies it out.
	var seen []Event
	r.Each(func(ev Event) { seen = append(seen, ev) })
	if len(seen) != 4 || seen[0] != evs[0] || seen[3] != evs[3] {
		t.Fatalf("Each visited %+v, want %+v", seen, evs)
	}
}

func TestFilterAndDump(t *testing.T) {
	r := NewRing(nil, 16)
	r.Add(Drop, 1, 10, "red")
	r.Add(Mark, 2, 11, "ce")
	r.Add(Drop, 3, 12, "buffer")
	drops := r.Filter(func(e Event) bool { return e.Kind == Drop })
	if len(drops) != 2 {
		t.Fatalf("drops = %d", len(drops))
	}
	s := r.String()
	if !strings.Contains(s, "drop") || !strings.Contains(s, "mark") {
		t.Fatalf("dump missing kinds:\n%s", s)
	}
}

func TestFilterAfterWrap(t *testing.T) {
	r := NewRing(nil, 4)
	// 10 alternating events; the ring keeps flows 6..9 (drop, mark, drop,
	// mark). Filter must see only surviving events, in chronological order.
	for i := 0; i < 10; i++ {
		kind := Drop
		if i%2 == 1 {
			kind = Mark
		}
		r.Add(kind, uint64(i), 0, "")
	}
	drops := r.Filter(func(e Event) bool { return e.Kind == Drop })
	if len(drops) != 2 || drops[0].Flow != 6 || drops[1].Flow != 8 {
		t.Fatalf("post-wrap drops wrong: %+v", drops)
	}
	marks := r.Filter(func(e Event) bool { return e.Kind == Mark })
	if len(marks) != 2 || marks[0].Flow != 7 || marks[1].Flow != 9 {
		t.Fatalf("post-wrap marks wrong: %+v", marks)
	}
}

func TestOverwrittenCounts(t *testing.T) {
	r := NewRing(nil, 3)
	for i := 0; i < 3; i++ {
		r.Add(Drop, uint64(i), 0, "")
	}
	if r.Overwritten() != 0 {
		t.Fatalf("overwritten before wrap = %d, want 0", r.Overwritten())
	}
	r.Add(Drop, 3, 0, "")
	if r.Overwritten() != 1 {
		t.Fatalf("overwritten after one displacement = %d, want 1", r.Overwritten())
	}
	for i := 4; i < 10; i++ {
		r.Add(Drop, uint64(i), 0, "")
	}
	if r.Overwritten() != 7 {
		t.Fatalf("overwritten = %d, want 7", r.Overwritten())
	}
	if r.Len() != 3 {
		t.Fatalf("len = %d, want capacity 3", r.Len())
	}
	evs := r.Events()
	if evs[0].Flow != 7 || evs[2].Flow != 9 {
		t.Fatalf("survivors wrong: %d..%d", evs[0].Flow, evs[2].Flow)
	}
}

// TestWrapExactMultiple pins overwrite accounting at capacity boundaries:
// after writing an exact multiple of the capacity the cursor is back at
// the start, the survivors are the last full window, and Overwritten
// equals writes minus capacity — no off-by-one at the seam.
func TestWrapExactMultiple(t *testing.T) {
	eng := sim.NewEngine(1)
	const capacity = 4
	r := NewRing(eng, capacity)
	for round := 1; round <= 3; round++ {
		for i := 0; i < capacity; i++ {
			i, round := i, round
			eng.At(sim.Time(round*100+i)*sim.Microsecond, func() {
				r.Add(Drop, uint64(round*100+i), 0, "")
			})
		}
		eng.Run(sim.Time(round+1) * 100 * sim.Microsecond)
		evs := r.Events()
		if len(evs) != capacity {
			t.Fatalf("round %d: len = %d, want %d", round, len(evs), capacity)
		}
		// The survivors are exactly this round's window, in time order.
		for i, ev := range evs {
			if ev.Flow != uint64(round*100+i) {
				t.Fatalf("round %d survivor %d = flow %d, want %d", round, i, ev.Flow, round*100+i)
			}
			if ev.At != sim.Time(round*100+i)*sim.Microsecond {
				t.Fatalf("round %d survivor %d timestamp wrong: %v", round, i, ev.At)
			}
		}
		if want := int64((round - 1) * capacity); r.Overwritten() != want {
			t.Fatalf("round %d: overwritten = %d, want %d", round, r.Overwritten(), want)
		}
	}
}

func TestKindNames(t *testing.T) {
	if FlowStart.String() != "flow-start" || Custom.String() != "custom" {
		t.Fatal("kind names wrong")
	}
	if Kind(200).String() != "unknown" {
		t.Fatal("unknown kind should be labelled")
	}
}

// TestMergeOfOneIsThatRing: one ring merges to itself (no copy, the
// single-engine fold); two rings interleave by time.
func TestMergeOfOneIsThatRing(t *testing.T) {
	a, b := NewRing(nil, 4), NewRing(nil, 4)
	a.events = []Event{{At: 1, Flow: 1}, {At: 3, Flow: 1}}
	b.events = []Event{{At: 2, Flow: 2}}
	if Merge(a) != a {
		t.Fatal("merge of one ring copied it")
	}
	evs := Merge(a, b).Events()
	if len(evs) != 3 || evs[0].At != 1 || evs[1].Flow != 2 || evs[2].At != 3 {
		t.Fatalf("merge of two rings: %+v", evs)
	}
}
