package core

import (
	"flexpass/internal/netem"
	"flexpass/internal/sim"
	"flexpass/internal/trace"
	"flexpass/internal/transport"
)

// Reassembly is the receive-side segment ledger shared by the transports:
// arrival dedup, cumulative edge tracking, and delivery accounting.
type Reassembly struct {
	got      Bitmap
	segs     int
	Cum      int
	Received int
}

// NewReassembly builds a ledger for segs segments, carved from a.
func NewReassembly(a *Segs, segs int) Reassembly {
	return Reassembly{got: a.Bitmap(segs), segs: segs}
}

// Deliver absorbs segment seq for fl: a new segment is credited to the
// flow's and the transport's receive accounting and advances the
// cumulative edge (returning true); duplicates and out-of-range arrivals
// count as redundant (returning false).
func (r *Reassembly) Deliver(fl *transport.Flow, stats transport.Counters, seq int) bool {
	if seq >= r.segs || !r.got.Add(seq) {
		fl.RedundantSegs++
		return false
	}
	r.Received++
	payload := int64(fl.SegPayload(seq))
	fl.RxBytes += payload
	stats.RxBytes.Add(payload)
	for r.Cum < r.segs && r.got.Has(r.Cum) {
		r.Cum++
	}
	return true
}

// Full reports whether every segment has arrived.
func (r *Reassembly) Full() bool { return r.Received >= r.segs }

// Bitmap is a growable set of small non-negative integers, one bit each:
// a receiver's per-sub-flow arrival map, carved with room for its flow's
// segments (Segs.Bitmap). A member past that grows it on the heap.
type Bitmap []uint64

// Has reports whether i is in the set.
func (b Bitmap) Has(i int) bool {
	w := i >> 6
	return w < len(b) && b[w]&(1<<(i&63)) != 0
}

// Add puts i in the set, growing it as needed, and reports whether i is
// new.
func (b *Bitmap) Add(i int) bool {
	w := i >> 6
	for w >= len(*b) {
		*b = append(*b, 0)
	}
	bit := uint64(1) << (i & 63)
	if (*b)[w]&bit != 0 {
		return false
	}
	(*b)[w] |= bit
	return true
}

// SendAck emits the standard ACK for a data packet: Seq echoes the data's
// sub-flow sequence, SubSeq carries the receiver's cumulative count, CE
// echoes the data's congestion mark when echoCE is set, and SentAt
// preserves the data timestamp for sender-side RTT sampling.
func SendAck(fl *transport.Flow, kind netem.Kind, class netem.Class, data *netem.Packet, cum uint32, echoCE bool) {
	host := fl.Dst.Host
	ack := host.NewPacket()
	*ack = netem.Packet{
		Kind:   kind,
		Class:  class,
		Dst:    fl.Src.Host.NodeID(),
		Flow:   fl.ID,
		Seq:    data.SubSeq,
		SubSeq: cum,
		CE:     echoCE && data.CE,
		Size:   netem.AckSize,
		SentAt: data.SentAt,
	}
	host.Send(ack)
}

// Complete finishes fl at the engine's current time and records the
// completion in the stats/trace plane. Callers check fl.Completed and
// stop their pacers first; Flow.Complete itself stays idempotent.
func Complete(eng *sim.Engine, fl *transport.Flow, stats transport.Counters, ring *trace.Ring) {
	fl.Complete(eng.Now())
	stats.Completed.Inc()
	stats.FCT.Observe(int64(fl.FCT() / sim.Microsecond))
	ring.Add(trace.FlowDone, fl.ID, int64(fl.FCT()/sim.Microsecond), "fct_us")
}

// StartSenderSide sets the flow's sender endpoint and stamps the
// flow-start stats/trace events on the sender's plane — the shared
// prologue of every transport's StartSender. Only this half labels the
// flow: the Flow's send-side fields belong to the source host's engine.
// The caller still invokes its sender's Begin.
func StartSenderSide(fl *transport.Flow, snd transport.Endpoint, stats transport.Counters, ring *trace.Ring, label string) {
	fl.Sender = snd
	stats.Started.Inc()
	ring.Add(trace.FlowStart, fl.ID, fl.Size, label)
}

// StartReceiverSide sets only the flow's receiver endpoint, mutating
// nothing the sender's engine touches.
func StartReceiverSide(fl *transport.Flow, rcv transport.Endpoint) {
	fl.Receiver = rcv
}
