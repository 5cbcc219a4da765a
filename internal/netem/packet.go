// Package netem models the network data plane: packets, queues, egress
// ports with configurable scheduling (strict priority, DWRR, token-bucket
// rate limiting), ECN marking, color-aware selective dropping, shared
// dynamic buffers, switches with ECMP forwarding, and hosts.
//
// The model is egress-queued store-and-forward: every directed link is an
// egress Port (queues + scheduler + serializer) followed by a fixed
// propagation delay to the peer node, which mirrors both ns-2 and real
// switch ASIC behaviour.
package netem

import (
	"flexpass/internal/sim"
)

// NodeID identifies a node (host or switch) in the network.
type NodeID int32

// Kind enumerates transport-level packet kinds across all transports in the
// repository. The data plane only cares about Class and Color; Kind is for
// the endpoints (and for readable traces).
type Kind uint8

// Packet kinds.
const (
	KindLegacyData Kind = iota // DCTCP / legacy data segment
	KindLegacyAck              // DCTCP ACK
	KindProData                // credit-scheduled (proactive) data
	KindReData                 // unscheduled (reactive) data
	KindCredit                 // ExpressPass credit
	KindCreditReq              // ExpressPass credit request (flow start)
	KindAckPro                 // ACK for credit-scheduled (proactive) data
	KindAckRe                  // ACK for reactive sub-flow data
	KindHomaData               // Homa data segment
	KindHomaGrant              // Homa grant
)

var kindNames = [...]string{
	"legacy-data", "legacy-ack", "pro-data", "re-data", "credit",
	"credit-req", "ack-pro", "ack-re", "homa-data", "homa-grant",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Color is the per-packet drop-precedence metadata used by color-aware
// selective dropping (paper §4.1/§5): reactive data packets are marked red
// and dropped once the per-queue red-byte threshold is exceeded.
type Color uint8

// Packet colors.
const (
	Green Color = iota
	Red
)

// String names the color.
func (c Color) String() string {
	switch c {
	case Green:
		return "green"
	case Red:
		return "red"
	}
	return "unknown"
}

// Class selects the egress queue a packet is mapped to (the DSCP analog).
// The default classifier maps Class i to queue i of every port; schemes and
// transports pick classes to implement the paper's Q0/Q1/Q2 layout or
// Homa's 8 priority queues.
type Class uint8

// The paper's three-queue layout.
const (
	ClassCredit Class = 0 // Q0: credit packets (strict priority, rate limited)
	ClassFlex   Class = 1 // Q1: FlexPass data + control
	ClassLegacy Class = 2 // Q2: legacy reactive traffic
)

// Packet is a simulated frame. Size is the wire size in bytes including all
// headers. Packets are passed by pointer but never mutated after enqueue
// except for the CE bit set by the marking queue.
type Packet struct {
	Kind  Kind
	Class Class
	Color Color

	ECNCapable bool // ECT: eligible for CE marking
	CE         bool // congestion experienced
	free       bool // on a PacketPool's free list: recycling it again panics

	Src, Dst NodeID
	Flow     uint64 // global flow identifier (shared by ACKs/credits of the flow)
	Seq      uint32 // per-flow sequence number (FlexPass reassembly)
	SubSeq   uint32 // per-sub-flow sequence number (congestion control / loss)
	Echo     uint32 // credit sequence echoed by credit-scheduled data

	Size int // wire bytes

	SentAt sim.Time // stamped by the sending endpoint (for RTT estimates)

	// at and next are data-plane bookkeeping, not visible to endpoints.
	// at is the time the frame entered its port queue while it is queued
	// (the dequeue hook reports the wait from it), then its arrival time
	// at the peer while it is on the wire. next links the frame into the
	// one fifo, or free list, that holds it.
	at   sim.Time
	next *Packet
}

// fifo is a queue of frames linked through Packet.next: pushing and
// popping never allocate, and a frame sits in at most one fifo at a time.
// Port queues, the wire and the host delay are fifos.
type fifo struct{ head, tail *Packet }

func (f *fifo) empty() bool   { return f.head == nil }
func (f *fifo) peek() *Packet { return f.head }

func (f *fifo) push(p *Packet) {
	if f.tail == nil {
		f.head = p
	} else {
		f.tail.next = p
	}
	f.tail = p
}

// chainLen counts the frames linked through next from p on, walking
// them: an oracle's count, not for the data path.
func chainLen(p *Packet) (n int64) {
	for ; p != nil; p = p.next {
		n++
	}
	return n
}

// pop removes the head; the caller guarantees the fifo is not empty.
func (f *fifo) pop() *Packet {
	p := f.head
	f.head, p.next = p.next, nil
	if f.head == nil {
		f.tail = nil
	}
	return p
}

// Node consumes packets delivered by the network.
type Node interface {
	// NodeID returns the node's network identifier.
	NodeID() NodeID
	// Receive is called when a packet arrives at the node.
	Receive(pkt *Packet)
}
