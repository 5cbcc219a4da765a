package core

import "testing"

func sendAll(t *SegTracker, n int) {
	for i := 0; i < n; i++ {
		seq := t.PickNew()
		if seq != i {
			panic("PickNew out of order")
		}
		t.MarkSent(seq)
	}
}

func TestSegTrackerCumAdvance(t *testing.T) {
	trk := NewSegTracker(new(Segs), 4)
	sendAll(&trk, 4)
	if trk.Inflight != 4 {
		t.Fatalf("Inflight = %d, want 4", trk.Inflight)
	}
	adv, loss := trk.OnAck(2, 1)
	if !adv || loss {
		t.Fatalf("OnAck(2,1) = (%v, %v), want (true, false)", adv, loss)
	}
	if trk.CumAck != 2 || trk.Inflight != 2 {
		t.Fatalf("CumAck=%d Inflight=%d, want 2 2", trk.CumAck, trk.Inflight)
	}
	if trk.Done() {
		t.Fatal("Done before full ack")
	}
	trk.OnAck(4, 3)
	if !trk.Done() || trk.Inflight != 0 {
		t.Fatalf("Done=%v Inflight=%d after full ack", trk.Done(), trk.Inflight)
	}
}

func TestSegTrackerDupAckLoss(t *testing.T) {
	trk := NewSegTracker(new(Segs), 6)
	sendAll(&trk, 6)
	// Segment 0 lost: sacks for 1..4 are duplicates at cum 0.
	var newLoss bool
	for sack := 1; sack <= 4; sack++ {
		_, loss := trk.OnAck(0, sack)
		newLoss = newLoss || loss
	}
	if !newLoss {
		t.Fatal("no loss declared after dup threshold")
	}
	seq := trk.PopLost()
	if seq != 0 {
		t.Fatalf("PopLost = %d, want 0", seq)
	}
	if trk.PopLost() != -1 {
		t.Fatal("second PopLost should be empty")
	}
	// A late arrival of the lost segment flips it to Acked; a queued
	// lost entry for it must then be skipped.
	trk2 := NewSegTracker(new(Segs), 6)
	sendAll(&trk2, 6)
	for sack := 1; sack <= 4; sack++ {
		trk2.OnAck(0, sack)
	}
	trk2.OnAck(1, 0) // the "lost" segment arrives after all
	if got := trk2.PopLost(); got != -1 {
		t.Fatalf("PopLost after late ack = %d, want -1", got)
	}
}

// TestSegTrackerNoDuplicateRetransmitStorm: once a lost segment has been
// retransmitted, the duplicate ACKs still in flight — sent before the
// retransmission left — must not declare it lost again (that resent it
// on every ACK: two retransmits per ACK, 83 733 on one DCTCP flow of the
// sharded golden scenario). Only an RTO re-declares it.
func TestSegTrackerNoDuplicateRetransmitStorm(t *testing.T) {
	trk := NewSegTracker(new(Segs), 8)
	sendAll(&trk, 8)
	for sack := 1; sack <= 4; sack++ {
		trk.OnAck(0, sack)
	}
	if seq := trk.PopLost(); seq != 0 {
		t.Fatalf("PopLost = %d, want 0", seq)
	}
	trk.MarkSent(0) // the retransmission
	for sack := 5; sack <= 7; sack++ {
		if _, loss := trk.OnAck(0, sack); loss {
			t.Fatalf("dup ACK for %d re-declared the retransmitted segment lost", sack)
		}
		if seq := trk.PopLost(); seq != -1 {
			t.Fatalf("PopLost after dup ACK for %d = %d, want -1", sack, seq)
		}
	}
	if trk.Inflight != 1 {
		t.Fatalf("Inflight = %d, want 1 (the retransmission)", trk.Inflight)
	}
	trk.LoseOutstanding()
	if seq := trk.PopLost(); seq != 0 || trk.Inflight != 0 {
		t.Fatalf("after RTO: PopLost = %d Inflight = %d, want 0 0", seq, trk.Inflight)
	}
	trk.MarkSent(0)
	if adv, _ := trk.OnAck(8, 0); !adv || !trk.Done() || trk.Inflight != 0 {
		t.Fatalf("final ACK: advanced=%v done=%v Inflight=%d", adv, trk.Done(), trk.Inflight)
	}
}

func TestSegTrackerPickOrderAndTailRescan(t *testing.T) {
	trk := NewSegTracker(new(Segs), 3)
	sendAll(&trk, 3)
	// All sent, nothing lost: Pick falls through to the tail rescan,
	// which hands out each unacked segment once per round.
	seen := map[int]bool{}
	for i := 0; i < 3; i++ {
		seq, retx := trk.Pick()
		if seq < 0 || !retx {
			t.Fatalf("Pick %d = (%d, %v), want tail retx", i, seq, retx)
		}
		seen[seq] = true
	}
	if len(seen) != 3 {
		t.Fatalf("tail round covered %d segments, want 3", len(seen))
	}
	if seq, _ := trk.Pick(); seq != -1 {
		t.Fatalf("Pick after exhausted round = %d, want -1 (no duplicate storm)", seq)
	}
	// A fresh ACK reopens the round from the cumulative edge.
	trk.OnAck(1, 0)
	seq, retx := trk.Pick()
	if seq != 1 || !retx {
		t.Fatalf("Pick after fresh ack = (%d, %v), want (1, true)", seq, retx)
	}
}

func TestSegTrackerLoseOutstanding(t *testing.T) {
	trk := NewSegTracker(new(Segs), 5)
	sendAll(&trk, 4) // one segment never sent
	trk.OnAck(1, 0)
	trk.LoseOutstanding()
	if trk.Inflight != 0 {
		t.Fatalf("Inflight = %d after LoseOutstanding, want 0", trk.Inflight)
	}
	for want := 1; want <= 3; want++ {
		if got := trk.PopLost(); got != want {
			t.Fatalf("PopLost = %d, want %d", got, want)
		}
	}
	if trk.PopLost() != -1 {
		t.Fatal("pending segment must not be marked lost")
	}
	if seq := trk.PickNew(); seq != 4 {
		t.Fatalf("PickNew after recovery = %d, want 4", seq)
	}
}
