// Package expresspass implements the ExpressPass credit-based proactive
// transport (Cho et al., SIGCOMM 2017) as used by the paper: receiver-driven
// credit pacing (the shared core.Pacer), per-link credit-queue rate
// limiting (done by the netem profiles), and SACK-style recovery over the
// credit loop.
package expresspass

import (
	"flexpass/internal/netem"
	"flexpass/internal/sim"
	"flexpass/internal/trace"
	"flexpass/internal/transport"
	"flexpass/internal/transport/core"
	"flexpass/internal/transport/dctcp"
)

// Config parameterizes an ExpressPass connection. Data, requests and
// ACKs ride the FlexPass queue (Q1); the recovery timeout is core.MinRTO.
type Config struct {
	Pacer core.PacerConfig

	// DataECN makes data packets ECN-capable (used by the layering
	// scheme, where ExpressPass data must carry DCTCP's congestion
	// signal).
	DataECN bool

	// Layered enables the LY scheme (§6.2): a DCTCP window on top of the
	// credit loop; a credit may only trigger a send when the window has
	// room.
	Layered bool

	// Trace, when non-nil, records lifecycle/retransmit/timeout/waste events.
	Trace *trace.Ring
	// Stats aggregates transport-wide counters (zero value no-ops).
	Stats transport.Counters

	// arena carves the endpoints this config starts (nil: each exactly).
	arena *core.Arena[Sender, Receiver]
}

// DefaultConfig returns the paper's ExpressPass setup for the given
// credit pacer configuration, with an endpoint arena of its own. A scheme
// builds it once per plane and its endpoints share it by pointer,
// read-only.
func DefaultConfig(p core.PacerConfig) Config {
	return Config{Pacer: p, arena: core.NewArena[Sender, Receiver]()}
}

// Sender is the ExpressPass send side: data leaves only when a credit
// arrives.
type Sender struct {
	cfg  *Config
	eng  *sim.Engine
	flow *transport.Flow

	trk core.SegTracker
	rec core.RecoveryTimer

	// Layering state (zero unless cfg.Layered).
	win dctcp.Window

	finished bool
}

// NewSender builds the send side, carved from the config's arena; Begin
// issues the credit request.
func NewSender(eng *sim.Engine, flow *transport.Flow, cfg *Config) *Sender {
	a := cfg.arena.Or()
	s := a.Sender()
	*s = Sender{
		cfg:  cfg,
		eng:  eng,
		flow: flow,
		trk:  core.NewSegTracker(&a.Segs, flow.Segs()),
	}
	if cfg.Layered {
		s.win = dctcp.NewWindow(dctcp.InitCwnd)
	}
	s.rec.Init(eng, s, core.RecoveryConfig{MaxShift: 4})
	return s
}

// Begin sends the credit request. ExpressPass spends the first RTT on the
// request/credit exchange (the paper's motivation for FlexPass's reactive
// first RTT).
func (s *Sender) Begin() {
	s.sendRequest()
	s.rec.Touch()
}

// sendRequest issues the credit request as a control packet in the data
// path (not the rate-limited credit queue), so synchronized flow starts do
// not lose their requests to the tiny credit buffer.
func (s *Sender) sendRequest() {
	host := s.flow.Src.Host
	pkt := host.NewPacket()
	*pkt = netem.Packet{
		Kind:   netem.KindCreditReq,
		Class:  netem.ClassFlex,
		Dst:    s.flow.Dst.Host.NodeID(),
		Flow:   s.flow.ID,
		Size:   netem.CtrlSize,
		SentAt: s.eng.Now(),
	}
	host.Send(pkt)
}

// BaseRTO is the recovery timer's constant core.MinRTO
// (core.RecoveryOwner).
func (s *Sender) BaseRTO() sim.Time { return core.MinRTO }

// Idle reports a finished flow (core.RecoveryOwner).
func (s *Sender) Idle() bool { return s.finished }

// Expire fires when neither credits nor ACKs arrived for an RTO: the
// credit request (or the whole credit stream) was lost. Re-request
// (core.RecoveryOwner).
func (s *Sender) Expire() {
	s.flow.Timeouts++
	s.cfg.Stats.Timeouts.Inc()
	s.cfg.Trace.Add(trace.Timeout, s.flow.ID, int64(s.trk.CumAck), "re-request")
	s.rec.Bump()
	s.sendRequest()
	s.rec.Touch()
}

func (s *Sender) transmit(seq int, retx bool, echo uint32) {
	s.trk.MarkSent(seq)
	if retx {
		s.flow.Retransmits++
		s.cfg.Stats.Retransmits.Inc()
		s.cfg.Trace.Add(trace.Retransmit, s.flow.ID, int64(seq), "")
	}
	host := s.flow.Src.Host
	pkt := host.NewPacket()
	*pkt = netem.Packet{
		Kind:       netem.KindProData,
		Class:      netem.ClassFlex,
		Color:      netem.Green,
		ECNCapable: s.cfg.DataECN,
		Dst:        s.flow.Dst.Host.NodeID(),
		Flow:       s.flow.ID,
		Seq:        uint32(seq),
		SubSeq:     uint32(seq),
		Echo:       echo,
		Size:       s.flow.SegWire(seq),
		SentAt:     s.eng.Now(),
	}
	host.Send(pkt)
}

// Handle processes credits and ACKs.
func (s *Sender) Handle(pkt *netem.Packet) {
	switch pkt.Kind {
	case netem.KindCredit:
		if s.finished {
			return
		}
		s.flow.CreditsGranted++
		s.cfg.Stats.CreditsGranted.Inc()
		if s.cfg.Layered && float64(s.trk.Inflight) >= s.win.Cwnd {
			s.flow.CreditsWasted++
			s.cfg.Stats.CreditsWasted.Inc()
			s.cfg.Trace.Add(trace.CreditWaste, s.flow.ID, int64(s.trk.CumAck), "window full")
			return
		}
		seq, retx := s.trk.Pick()
		if seq < 0 {
			s.flow.CreditsWasted++
			s.cfg.Stats.CreditsWasted.Inc()
			s.cfg.Trace.Add(trace.CreditWaste, s.flow.ID, int64(s.trk.CumAck), "no data")
			return
		}
		s.transmit(seq, retx, pkt.SubSeq)
		s.cfg.Trace.Add(trace.CreditUse, s.flow.ID, int64(seq), "")
		s.rec.Touch()
	case netem.KindAckPro:
		s.onAck(pkt)
	}
}

func (s *Sender) onAck(pkt *netem.Packet) {
	if s.finished {
		return
	}
	s.rec.Reset()
	cum := int(pkt.SubSeq)
	s.trk.OnAck(cum, int(pkt.Seq))
	if s.cfg.Layered {
		// The window sees the raw cumulative ACK (not the folded edge): a
		// stale reordered ACK must not fast-forward the alpha/reduce epochs.
		s.win.OnAck(cum, s.trk.NextNew, pkt.CE)
	}
	if s.trk.Done() {
		s.finished = true
		return
	}
	s.rec.Touch()
}

// Receiver is the ExpressPass receive side: it paces credits and
// acknowledges data.
type Receiver struct {
	cfg   *Config
	eng   *sim.Engine
	flow  *transport.Flow
	pacer core.Pacer
	asm   core.Reassembly
}

// NewReceiver builds the receive side, carved from the config's arena.
func NewReceiver(eng *sim.Engine, flow *transport.Flow, cfg *Config) *Receiver {
	a := cfg.arena.Or()
	r := a.Receiver()
	*r = Receiver{cfg: cfg, eng: eng, flow: flow, asm: core.NewReassembly(&a.Segs, flow.Segs())}
	r.pacer.Init(eng, flow.Dst.Host, flow.Src.Host.NodeID(), flow.ID, &cfg.Pacer)
	return r
}

// Pacer exposes the credit pacer (stats, tests).
func (r *Receiver) Pacer() *core.Pacer { return &r.pacer }

// Handle processes credit requests and data.
func (r *Receiver) Handle(pkt *netem.Packet) {
	switch pkt.Kind {
	case netem.KindCreditReq:
		if !r.flow.Completed {
			r.pacer.Start()
		}
	case netem.KindProData:
		r.pacer.OnData(pkt.Echo)
		r.asm.Deliver(r.flow, r.cfg.Stats, int(pkt.SubSeq))
		core.SendAck(r.flow, netem.KindAckPro, netem.ClassFlex, pkt, uint32(r.asm.Cum), true)
		if r.asm.Full() && !r.flow.Completed {
			r.pacer.Stop()
			core.Complete(r.eng, r.flow, r.cfg.Stats, r.cfg.Trace)
		}
	}
}

// StartSender wires only the send side, on the source host's engine, and
// begins the flow.
func (cfg *Config) StartSender(eng *sim.Engine, flow *transport.Flow) {
	s := NewSender(eng, flow, cfg)
	core.StartSenderSide(flow, s, cfg.Stats, cfg.Trace, transport.SchemeExpressPass)
	s.Begin()
}

// StartReceiver wires only the receive side; its credit pacer engages on
// the first data/request arrival as usual.
func (cfg *Config) StartReceiver(eng *sim.Engine, flow *transport.Flow) {
	core.StartReceiverSide(flow, NewReceiver(eng, flow, cfg))
}
