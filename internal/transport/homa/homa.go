// Package homa implements a deliberately simplified HOMA-style
// receiver-driven transport, sufficient for the paper's Fig 1(b)
// motivation: multiple receiver-driven flows whose receivers grant at the
// full (down)link capacity — with no awareness of co-existing reactive
// traffic — starve DCTCP flows sharing the bottleneck.
//
// Modeled features: unscheduled first-BDP data in the top priority queue
// (which Fig 1(b) shares with the DCTCP flows), grant-clocked scheduled
// data in lower priority queues, blind full-rate granting, 8 switch
// priorities, per-message unscheduled bursts for message streams.
// Omitted (irrelevant to the figure): SRPT priority adaptation,
// retransmission, incast overcommitment control.
package homa

import (
	"flexpass/internal/netem"
	"flexpass/internal/sim"
	"flexpass/internal/trace"
	"flexpass/internal/transport"
	"flexpass/internal/transport/core"
	"flexpass/internal/units"
)

// Config parameterizes a Homa-lite connection.
type Config struct {
	// UnschedSegs is the number of unscheduled segments sent blindly at
	// the start of every message (≈ one BDP).
	UnschedSegs int
	// MsgSegs is the message size in segments for message streams; a new
	// message begins as soon as the previous one is fully transmitted.
	MsgSegs int
	// GrantRate is the rate at which the receiver grants (the full
	// downlink capacity — Homa assumes it owns it).
	GrantRate units.Rate
	// UnschedClass is the priority queue of unscheduled data (0 = top,
	// shared with DCTCP in Fig 1b).
	UnschedClass netem.Class
	// SchedClass is the priority queue of granted data.
	SchedClass netem.Class
	// GrantClass is the priority queue of grant packets.
	GrantClass netem.Class

	// Trace, when non-nil, records flow lifecycle events.
	Trace *trace.Ring
	// Stats aggregates transport-wide counters (zero value no-ops).
	Stats transport.Counters

	// arena carves the endpoints this config starts (nil: each exactly).
	arena *core.Arena[Sender, Receiver]
}

// DefaultConfig returns the Fig 1(b) setup for the given bottleneck rate,
// with an endpoint arena of its own. A scheme builds it once per plane
// and its endpoints share it by pointer, read-only.
func DefaultConfig(line units.Rate) Config {
	return Config{
		UnschedSegs:  8,
		MsgSegs:      680, // ≈1MB messages
		GrantRate:    line,
		UnschedClass: 0,
		SchedClass:   2,
		GrantClass:   0,
		arena:        core.NewArena[Sender, Receiver](),
	}
}

// Sender transmits unscheduled bursts at message starts and one scheduled
// segment per grant.
type Sender struct {
	cfg  *Config
	eng  *sim.Engine
	flow *transport.Flow

	next    int // next segment to send
	msgSent int // segments of the current message already sent
}

// NewSender builds the send side, carved from the config's arena; Begin
// fires the first unscheduled burst.
func NewSender(eng *sim.Engine, flow *transport.Flow, cfg *Config) *Sender {
	s := cfg.arena.Or().Sender()
	*s = Sender{cfg: cfg, eng: eng, flow: flow}
	return s
}

// Begin sends the first message's unscheduled burst.
func (s *Sender) Begin() { s.burst() }

// burst sends the unscheduled prefix of the current message.
func (s *Sender) burst() {
	n := s.cfg.UnschedSegs
	if n > s.cfg.MsgSegs {
		n = s.cfg.MsgSegs
	}
	for i := 0; i < n && s.next < s.flow.Segs(); i++ {
		s.sendSeg(s.cfg.UnschedClass)
	}
}

func (s *Sender) sendSeg(class netem.Class) {
	seq := s.next
	s.next++
	s.msgSent++
	host := s.flow.Src.Host
	pkt := host.NewPacket()
	*pkt = netem.Packet{
		Kind:   netem.KindHomaData,
		Class:  class,
		Dst:    s.flow.Dst.Host.NodeID(),
		Flow:   s.flow.ID,
		Seq:    uint32(seq),
		SubSeq: uint32(seq),
		Size:   s.flow.SegWire(seq),
		SentAt: s.eng.Now(),
	}
	host.Send(pkt)
	if s.msgSent >= s.cfg.MsgSegs {
		// Message boundary: the next message starts with a fresh
		// unscheduled burst.
		s.msgSent = 0
		if s.next < s.flow.Segs() {
			s.burst()
		}
	}
}

// Handle processes grants: each grant clocks out one scheduled segment.
func (s *Sender) Handle(pkt *netem.Packet) {
	if pkt.Kind != netem.KindHomaGrant {
		return
	}
	s.flow.CreditsGranted++
	s.cfg.Stats.CreditsGranted.Inc()
	if s.next < s.flow.Segs() {
		s.cfg.Trace.Add(trace.CreditUse, s.flow.ID, int64(s.next), "grant")
		s.sendSeg(s.cfg.SchedClass)
	} else {
		s.flow.CreditsWasted++
		s.cfg.Stats.CreditsWasted.Inc()
	}
}

// Receiver counts arrivals and grants blindly at the configured rate.
// There is no retransmission: Homa-lite is a throughput baseline.
type Receiver struct {
	cfg  *Config
	eng  *sim.Engine
	flow *transport.Flow

	granting bool
	timer    sim.Timer
	received int
}

// NewReceiver builds the receive side, carved from the config's arena.
func NewReceiver(eng *sim.Engine, flow *transport.Flow, cfg *Config) *Receiver {
	r := cfg.arena.Or().Receiver()
	*r = Receiver{cfg: cfg, eng: eng, flow: flow}
	return r
}

// Handle processes data arrivals and starts the grant clock.
func (r *Receiver) Handle(pkt *netem.Packet) {
	if pkt.Kind != netem.KindHomaData {
		return
	}
	r.received++
	r.flow.RxBytes += int64(r.flow.SegPayload(int(pkt.Seq)))
	r.cfg.Stats.RxBytes.Add(int64(r.flow.SegPayload(int(pkt.Seq))))
	if r.received >= r.flow.Segs() {
		r.stop()
		core.Complete(r.eng, r.flow, r.cfg.Stats, r.cfg.Trace)
		return
	}
	if !r.granting {
		r.granting = true
		r.scheduleGrant()
	}
}

func (r *Receiver) stop() {
	r.granting = false
	r.timer.Stop()
}

// scheduleGrant paces one grant per full-size segment at GrantRate — the
// full link capacity, with no co-existence awareness.
func (r *Receiver) scheduleGrant() {
	r.timer = r.eng.ScheduleAfter(r.cfg.GrantRate.TxTime(netem.MTUWire), (*receiverGrant)(r))
}

// receiverGrant is the receiver's next grant, the receiver itself: arming
// it allocates nothing.
type receiverGrant Receiver

func (g *receiverGrant) Fire() { (*Receiver)(g).grantTick() }

func (r *Receiver) grantTick() {
	if !r.granting {
		return
	}
	r.cfg.Stats.CreditsIssued.Inc()
	r.cfg.Trace.Add(trace.CreditIssue, r.flow.ID, int64(r.received), "grant")
	host := r.flow.Dst.Host
	pkt := host.NewPacket()
	*pkt = netem.Packet{
		Kind:   netem.KindHomaGrant,
		Class:  r.cfg.GrantClass,
		Dst:    r.flow.Src.Host.NodeID(),
		Flow:   r.flow.ID,
		Size:   netem.CtrlSize,
		SentAt: r.eng.Now(),
	}
	host.Send(pkt)
	r.scheduleGrant()
}

// StartSender wires only the send side, on the source host's engine, and
// begins the flow.
func (cfg *Config) StartSender(eng *sim.Engine, flow *transport.Flow) {
	s := NewSender(eng, flow, cfg)
	core.StartSenderSide(flow, s, cfg.Stats, cfg.Trace, transport.SchemeHoma)
	s.Begin()
}

// StartReceiver wires only the receive side; granting engages on the
// first unscheduled arrival.
func (cfg *Config) StartReceiver(eng *sim.Engine, flow *transport.Flow) {
	core.StartReceiverSide(flow, NewReceiver(eng, flow, cfg))
}
