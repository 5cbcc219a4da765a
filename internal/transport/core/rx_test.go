package core

import (
	"testing"

	"flexpass/internal/netem"
	"flexpass/internal/transport"
)

func TestReassemblyDeliver(t *testing.T) {
	fl := &transport.Flow{Size: 2*netem.DataPayload + 100}
	segs := fl.Segs()
	if segs != 3 {
		t.Fatalf("Segs = %d, want 3", segs)
	}
	asm := NewReassembly(new(Segs), segs)
	var stats transport.Counters // zero value: increments no-op

	if !asm.Deliver(fl, stats, 1) {
		t.Fatal("first delivery rejected")
	}
	if asm.Cum != 0 {
		t.Fatalf("Cum = %d with a hole at 0, want 0", asm.Cum)
	}
	if asm.Deliver(fl, stats, 1) {
		t.Fatal("duplicate accepted")
	}
	if fl.RedundantSegs != 1 {
		t.Fatalf("RedundantSegs = %d, want 1", fl.RedundantSegs)
	}
	asm.Deliver(fl, stats, 0)
	if asm.Cum != 2 {
		t.Fatalf("Cum = %d after filling the hole, want 2", asm.Cum)
	}
	if asm.Full() {
		t.Fatal("Full with one segment missing")
	}
	asm.Deliver(fl, stats, 2)
	if !asm.Full() || asm.Cum != 3 {
		t.Fatalf("Full=%v Cum=%d after all segments", asm.Full(), asm.Cum)
	}
	if fl.RxBytes != fl.Size {
		t.Fatalf("RxBytes = %d, want %d", fl.RxBytes, fl.Size)
	}
	// Out of range counts as redundant, not a panic.
	if asm.Deliver(fl, stats, 99) {
		t.Fatal("out-of-range delivery accepted")
	}
}

// TestGrow holds the arrival bitmap's growth: adding past the end grows
// it, and neither growing nor a repeated add clobbers what it holds.
func TestGrow(t *testing.T) {
	var b Bitmap
	if !b.Add(3) || b.Has(2) || !b.Has(3) {
		t.Fatalf("after Add(3): %b", b)
	}
	if b.Add(3) {
		t.Fatal("a repeated Add reported a new member")
	}
	if !b.Add(200) || len(b) != 4 || !b.Has(3) || !b.Has(200) || b.Has(199) {
		t.Fatalf("growing to 200 shrank or clobbered the bitmap: %b", b)
	}
	if b.Has(1 << 20) {
		t.Fatal("Has past the end reported a member")
	}
}
