package core

// Segment states at a sender (shared shape across dctcp, expresspass and
// phost).
const (
	StPending uint8 = iota
	StSent
	StAcked
	StLost
)

// SegTracker is the send-side SACK bookkeeping shared by the
// single-sub-flow transports: per-segment state, the lost-segment FIFO,
// cumulative/selective ACK folding with duplicate-ACK loss inference,
// and the tail-rescan pointer used by credit-clocked senders.
//
// Inflight counts Sent segments for window-gated senders; credit-clocked
// senders that do not use a window may ignore it.
type SegTracker struct {
	State    []uint8
	NextNew  int
	CumAck   int
	SackHigh int
	DupAcks  int
	Inflight int

	lostQ    LostQueue
	arena    *Segs // carves lostQ on the first loss
	scanned  int   // the dup-ACK loss scan has passed [0, scanned)
	oldest   int   // scan pointer for tail retransmission
	rescanOK bool  // a fresh ACK arrived since the last full tail rescan
}

// NewSegTracker builds a tracker for segs segments, all Pending, carved
// from a.
func NewSegTracker(a *Segs, segs int) SegTracker {
	return SegTracker{State: a.States(segs), arena: a}
}

// Done reports whether every segment has been cumulatively acked.
func (t *SegTracker) Done() bool { return t.CumAck >= len(t.State) }

// MarkSent transitions seq to Sent (call when handing it to the wire).
func (t *SegTracker) MarkSent(seq int) {
	t.State[seq] = StSent
	t.Inflight++
}

// PopLost pops the next segment still marked Lost, or -1.
func (t *SegTracker) PopLost() int {
	for {
		cand := t.lostQ.Pop()
		if cand < 0 || t.State[cand] == StLost {
			return cand
		}
	}
}

// PickNew hands out the next never-transmitted segment, or -1.
func (t *SegTracker) PickNew() int {
	if t.NextNew < len(t.State) {
		seq := t.NextNew
		t.NextNew++
		return seq
	}
	return -1
}

// OldestUnacked advances the tail-rescan pointer past acked segments and
// returns the first unacked one without consuming it, or -1.
func (t *SegTracker) OldestUnacked() int {
	for t.oldest < len(t.State) && t.State[t.oldest] == StAcked {
		t.oldest++
	}
	if t.oldest < len(t.State) {
		return t.oldest
	}
	return -1
}

// PickTail re-sends the oldest unacked segment, each at most once per
// rescan round; a new round opens only when a fresh ACK arrives (OnAck),
// so a slow ACK path cannot trigger a duplicate storm. Returns -1 when
// the round is exhausted.
func (t *SegTracker) PickTail() int {
	for {
		if seq := t.OldestUnacked(); seq >= 0 {
			t.oldest++
			return seq
		}
		if !t.rescanOK {
			return -1
		}
		t.rescanOK = false
		t.oldest = t.CumAck
	}
}

// Pick selects the segment a fresh credit should carry: Lost first, then
// new data, then the oldest unacked (tail robustness). The second return
// reports a retransmission; (-1, false) means the credit is wasted.
func (t *SegTracker) Pick() (seq int, retx bool) {
	if seq := t.PopLost(); seq >= 0 {
		return seq, true
	}
	if seq := t.PickNew(); seq >= 0 {
		return seq, false
	}
	if seq := t.PickTail(); seq >= 0 {
		return seq, true
	}
	return -1, false
}

// OnAck folds one (cum, sack) ACK pair in: the sacked segment is marked
// delivered, the cumulative edge advances, duplicate ACKs accumulate, and
// once dupThresh duplicates are seen everything sent but unacked more
// than dupThresh below the highest SACK is marked Lost (queued for
// retransmission). The scan resumes where it stopped: the duplicates
// behind a retransmission predate it, so only LoseOutstanding (an RTO)
// declares a segment the scan has passed lost again. Returns whether the
// cumulative edge advanced and whether fresh segments were declared lost.
func (t *SegTracker) OnAck(cum, sack, dupThresh int) (advanced, newLoss bool) {
	t.rescanOK = true
	if sack < len(t.State) {
		switch t.State[sack] {
		case StSent:
			t.State[sack] = StAcked
			t.Inflight--
		case StLost:
			// Arrived after being declared lost: count it acked; the
			// retransmit, if it happens, will be acked as a duplicate.
			t.State[sack] = StAcked
		}
	}
	if sack > t.SackHigh {
		t.SackHigh = sack
	}
	if cum > t.CumAck {
		for seq := t.CumAck; seq < cum && seq < len(t.State); seq++ {
			if t.State[seq] == StSent {
				t.Inflight--
			}
			t.State[seq] = StAcked
		}
		t.CumAck = cum
		t.DupAcks = 0
		advanced = true
	} else if sack >= t.CumAck {
		t.DupAcks++
	}
	if t.DupAcks >= dupThresh {
		edge := t.SackHigh - dupThresh + 1
		for seq := max(t.CumAck, t.scanned); seq < edge && seq < len(t.State); seq++ {
			if t.State[seq] == StSent {
				t.State[seq] = StLost
				t.Inflight--
				t.lostQ.Push(t.arena, len(t.State), seq)
				newLoss = true
			}
		}
		t.scanned = max(t.scanned, edge)
	}
	return advanced, newLoss
}

// LoseOutstanding marks every Sent segment in [CumAck, NextNew) Lost
// (RTO recovery: everything outstanding is presumed gone).
func (t *SegTracker) LoseOutstanding() {
	for seq := t.CumAck; seq < t.NextNew; seq++ {
		if t.State[seq] == StSent {
			t.State[seq] = StLost
			t.Inflight--
			t.lostQ.Push(t.arena, len(t.State), seq)
		}
	}
}

// LostQueue is the FIFO of segments awaiting retransmission. It pops by
// head index and rewinds when it drains, so the backing array is reused
// across loss episodes instead of re-grown behind a sliding window.
type LostQueue struct {
	segs []int32
	head int
}

// Push appends seg. The first push carves the queue's array from a, with
// room for min(n, lostRoom) entries, n the flow's segment count, so a
// flow that never loses a segment carves none. A queue rarely holds more
// than a few entries at once (it rewinds when it drains); one that
// outgrows its run moves to the heap on append.
func (q *LostQueue) Push(a *Segs, n, seg int) {
	if q.segs == nil {
		q.segs = a.Seqs(min(n, lostRoom))[:0]
	}
	q.segs = append(q.segs, int32(seg))
}

// lostRoom bounds the array a lost queue carves: a whole flow's worth, as
// an RTO that loses a large window would need, costs a large flow
// kilobytes it almost never fills.
const lostRoom = 8

// Pop removes and returns the oldest segment, or -1 when empty.
func (q *LostQueue) Pop() int {
	if q.head == len(q.segs) {
		return -1
	}
	seg := int(q.segs[q.head])
	if q.head++; q.head == len(q.segs) {
		q.segs, q.head = q.segs[:0], 0
	}
	return seg
}
