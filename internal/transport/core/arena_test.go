package core

import (
	"testing"
	"unsafe"
)

// TestArenaCarves: endpoints and per-segment arrays come from shared
// arrays, each run capped at its length; a nil arena carves through a
// zero one, which makes every struct and array exactly.
func TestArenaCarves(t *testing.T) {
	type sender struct{ a, b int }
	a := NewArena[sender, int]()
	s1, s2 := a.Sender(), a.Sender()
	if unsafe.Add(unsafe.Pointer(s1), unsafe.Sizeof(*s1)) != unsafe.Pointer(s2) {
		t.Fatal("two senders of one arena are not neighbours in one array")
	}
	st := a.States(3)
	if len(st) != 3 || cap(st) != 3 {
		t.Fatalf("states: len %d cap %d, want a run capped at 3", len(st), cap(st))
	}
	if b := a.Bitmap(65); len(b) != 2 || cap(b) != 2 {
		t.Fatalf("bitmap for 65 members: len %d cap %d, want 2 words", len(b), cap(b))
	}

	var none *Arena[sender, int]
	z := none.Or()
	if z == nil || z.Sender() == nil {
		t.Fatal("a nil arena carved nothing")
	}
	if st := z.States(5); len(st) != 5 || cap(st) != 5 {
		t.Fatalf("a nil arena's states: len %d cap %d, want an exact array", len(st), cap(st))
	}
}

// TestLostQueueCarvesOnFirstLoss: a lost queue carves nothing until its
// first push, then room for at most lostRoom entries; one that outgrows
// its run keeps every entry in order and leaves the queue carved after
// it alone.
func TestLostQueueCarvesOnFirstLoss(t *testing.T) {
	a := NewArena[int, int]()
	var long, short LostQueue
	if long.segs != nil {
		t.Fatal("an unused lost queue holds an array")
	}
	long.Push(&a.Segs, 1000, 0)
	short.Push(&a.Segs, 3, 99)
	if cap(long.segs) != lostRoom || cap(short.segs) != 3 {
		t.Fatalf("room for %d and %d, want %d for a long flow and 3 for a 3-segment one",
			cap(long.segs), cap(short.segs), lostRoom)
	}
	for seg := 1; seg < 2*lostRoom; seg++ {
		long.Push(&a.Segs, 1000, seg)
	}
	for want := 0; want < 2*lostRoom; want++ {
		if got := long.Pop(); got != want {
			t.Fatalf("Pop = %d, want %d", got, want)
		}
	}
	if got := short.Pop(); got != 99 {
		t.Fatalf("the short queue popped %d, want 99: the long one wrote into it", got)
	}
}
