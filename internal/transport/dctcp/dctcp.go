package dctcp

import (
	"flexpass/internal/netem"
	"flexpass/internal/sim"
	"flexpass/internal/trace"
	"flexpass/internal/transport"
	"flexpass/internal/transport/core"
)

// Config parameterizes a DCTCP connection. The class/kind fields let the
// same engine serve plain legacy traffic (legacy classes) and embedded
// uses.
type Config struct {
	DataClass netem.Class
	AckClass  netem.Class
	DataKind  netem.Kind
	AckKind   netem.Kind
	Color     netem.Color
	InitCwnd  float64
	MinRTO    sim.Time
	// DupThresh is the duplicate-ACK / SACK reordering threshold.
	DupThresh int

	// Trace, when non-nil, records lifecycle/retransmit/timeout events.
	Trace *trace.Ring
	// Stats aggregates transport-wide counters (zero value no-ops).
	Stats transport.Counters

	// arena carves the endpoints this config starts (nil: each exactly).
	arena *core.Arena[Sender, Receiver]
}

// LegacyConfig returns the paper's legacy-traffic configuration: data and
// ACKs in the legacy queue, ECN-capable, iw=10, RTOmin=4ms, with an
// endpoint arena of its own. A scheme builds it once per plane and its
// endpoints share it by pointer, read-only.
func LegacyConfig() Config {
	return Config{
		DataClass: netem.ClassLegacy,
		AckClass:  netem.ClassLegacy,
		DataKind:  netem.KindLegacyData,
		AckKind:   netem.KindLegacyAck,
		Color:     netem.Green,
		InitCwnd:  10,
		MinRTO:    4 * sim.Millisecond,
		DupThresh: 3,
		arena:     core.NewArena[Sender, Receiver](),
	}
}

// Sender is the DCTCP send side of one flow.
type Sender struct {
	cfg  *Config
	eng  *sim.Engine
	flow *transport.Flow
	win  Window

	trk core.SegTracker
	rec core.RecoveryTimer

	srtt, rttvar sim.Time
	recoverEdge  int
	finished     bool
}

// NewSender builds the send side, carved from the config's arena; call
// Begin to start transmitting.
func NewSender(eng *sim.Engine, flow *transport.Flow, cfg *Config) *Sender {
	a := cfg.arena.Or()
	s := a.Sender()
	*s = Sender{
		cfg:  cfg,
		eng:  eng,
		flow: flow,
		win:  NewWindow(cfg.InitCwnd),
		trk:  core.NewSegTracker(&a.Segs, flow.Segs()),
	}
	s.rec.Init(eng, s, core.RecoveryConfig{MaxShift: 6, ShiftOnArm: true})
	return s
}

// Begin starts the flow (first window of packets).
func (s *Sender) Begin() { s.sendMore() }

// Cwnd exposes the congestion window for tests.
func (s *Sender) Cwnd() float64 { return s.win.Cwnd }

func (s *Sender) sendMore() {
	for s.trk.Inflight < int(s.win.Cwnd) {
		seq := s.trk.PopLost()
		retx := seq >= 0
		if seq < 0 {
			if seq = s.trk.PickNew(); seq < 0 {
				break
			}
		}
		s.transmit(seq, retx)
	}
	s.rec.Touch()
}

func (s *Sender) transmit(seq int, retx bool) {
	s.trk.MarkSent(seq)
	if retx {
		s.flow.Retransmits++
		s.cfg.Stats.Retransmits.Inc()
		s.cfg.Trace.Add(trace.Retransmit, s.flow.ID, int64(seq), "")
	}
	host := s.flow.Src.Host
	pkt := host.NewPacket()
	*pkt = netem.Packet{
		Kind:       s.cfg.DataKind,
		Class:      s.cfg.DataClass,
		Color:      s.cfg.Color,
		ECNCapable: true,
		Dst:        s.flow.Dst.Host.NodeID(),
		Flow:       s.flow.ID,
		Seq:        uint32(seq),
		SubSeq:     uint32(seq), // plain DCTCP: sub-flow seq == flow seq
		Size:       s.flow.SegWire(seq),
		SentAt:     s.eng.Now(),
	}
	host.Send(pkt)
}

// BaseRTO is the un-backed-off timeout: srtt + 4·rttvar, floored at
// MinRTO (core.RecoveryOwner).
func (s *Sender) BaseRTO() sim.Time {
	r := s.cfg.MinRTO
	if s.srtt != 0 {
		if est := s.srtt + 4*s.rttvar; est > r {
			r = est
		}
	}
	return r
}

// Idle reports nothing to time out: the flow finished or nothing is in
// flight (core.RecoveryOwner).
func (s *Sender) Idle() bool { return s.finished || s.trk.Inflight == 0 }

// Expire is the RTO: back off, collapse the window and resend everything
// outstanding (core.RecoveryOwner).
func (s *Sender) Expire() {
	s.flow.Timeouts++
	s.cfg.Stats.Timeouts.Inc()
	s.cfg.Trace.Add(trace.Timeout, s.flow.ID, int64(s.trk.CumAck), "rto")
	s.rec.Bump()
	s.win.OnTimeout()
	s.cfg.Trace.Addf(trace.WindowCut, s.flow.ID, int64(s.trk.CumAck), "timeout cwnd=%.1f", s.win.Cwnd)
	s.trk.DupAcks = 0
	s.trk.LoseOutstanding()
	s.recoverEdge = s.trk.NextNew
	s.sendMore()
}

// Handle processes ACKs. ACK wire encoding (see package doc): SubSeq =
// cumulative in-order count, Seq = sub-flow seq that triggered the ACK,
// CE = ECN echo, SentAt = original data timestamp.
func (s *Sender) Handle(pkt *netem.Packet) {
	if pkt.Kind != s.cfg.AckKind || s.finished {
		return
	}
	cum := int(pkt.SubSeq)
	sack := int(pkt.Seq)

	// RTT sample.
	sample := s.eng.Now() - pkt.SentAt
	if s.srtt == 0 {
		s.srtt = sample
		s.rttvar = sample / 2
	} else {
		d := sample - s.srtt
		if d < 0 {
			d = -d
		}
		s.rttvar = (3*s.rttvar + d) / 4
		s.srtt = (7*s.srtt + sample) / 8
	}

	advanced, newLoss := s.trk.OnAck(cum, sack, s.cfg.DupThresh)
	if advanced {
		s.rec.Reset()
	}

	s.win.OnAck(cum, s.trk.NextNew, pkt.CE)

	// Fast-retransmit window reduction, at most once per recovery window.
	if newLoss && s.trk.CumAck >= s.recoverEdge {
		s.win.OnLoss(s.trk.CumAck, s.trk.NextNew)
		s.recoverEdge = s.trk.NextNew
		s.cfg.Trace.Addf(trace.WindowCut, s.flow.ID, int64(s.trk.CumAck), "dupack cwnd=%.1f", s.win.Cwnd)
	}

	if s.trk.Done() {
		s.finished = true
		return
	}
	s.sendMore()
}

// Receiver is the DCTCP receive side of one flow. It acknowledges every
// data packet and completes the flow when all bytes have arrived.
type Receiver struct {
	cfg  *Config
	eng  *sim.Engine
	flow *transport.Flow
	asm  core.Reassembly
}

// NewReceiver builds the receive side, carved from the config's arena.
func NewReceiver(eng *sim.Engine, flow *transport.Flow, cfg *Config) *Receiver {
	a := cfg.arena.Or()
	r := a.Receiver()
	*r = Receiver{cfg: cfg, eng: eng, flow: flow, asm: core.NewReassembly(&a.Segs, flow.Segs())}
	return r
}

// Handle processes data packets.
func (r *Receiver) Handle(pkt *netem.Packet) {
	if pkt.Kind != r.cfg.DataKind {
		return
	}
	r.asm.Deliver(r.flow, r.cfg.Stats, int(pkt.SubSeq))
	core.SendAck(r.flow, r.cfg.AckKind, r.cfg.AckClass, pkt, uint32(r.asm.Cum), true)
	if r.asm.Full() && !r.flow.Completed {
		core.Complete(r.eng, r.flow, r.cfg.Stats, r.cfg.Trace)
	}
}

// StartSender wires only the send side, on the source host's engine, and
// begins transmission.
func (cfg *Config) StartSender(eng *sim.Engine, flow *transport.Flow) {
	s := NewSender(eng, flow, cfg)
	core.StartSenderSide(flow, s, cfg.Stats, cfg.Trace, transport.SchemeDCTCP)
	s.Begin()
}

// StartReceiver wires only the receive side.
func (cfg *Config) StartReceiver(eng *sim.Engine, flow *transport.Flow) {
	core.StartReceiverSide(flow, NewReceiver(eng, flow, cfg))
}
