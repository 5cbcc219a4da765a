// Package phost implements a simplified pHost (Gao et al., CoNEXT 2015)
// — the alternative receiver-driven credit allocator the paper's §4.3
// names as a drop-in for FlexPass's proactive sub-flow in non-blocking
// fabrics. Unlike ExpressPass, pHost does not rate-limit credits inside
// the network: each receiver owns its downlink and emits tokens at the
// downlink rate, round-robin across its active flows (the real system
// schedules by SRPT and downgrades unresponsive sources; round-robin
// preserves the behaviour that matters here: edge-only congestion
// control with no switch support).
//
// Modeled: free first-RTT tokens (unscheduled data), per-receiver token
// arbitration, outstanding-token caps, per-packet ACKs, token-clocked
// loss recovery. Omitted: SRPT ordering, multi-priority spraying.
package phost

import (
	"flexpass/internal/netem"
	"flexpass/internal/sim"
	"flexpass/internal/trace"
	"flexpass/internal/transport"
	"flexpass/internal/transport/core"
	"flexpass/internal/units"
)

// Config parameterizes a pHost connection.
type Config struct {
	DataClass  netem.Class
	AckClass   netem.Class
	TokenClass netem.Class
	// FreeSegs is the unscheduled first-RTT allowance (≈ one BDP).
	FreeSegs int
	// OutstandingCap bounds tokens-in-flight per flow (token leakage from
	// lost data stops the arbiter wasting its downlink).
	OutstandingCap int
	// TokenTimeout expires outstanding tokens when no data has arrived
	// for this long, replenishing the allowance (pHost's token expiry:
	// lost data must not permanently consume the flow's token budget).
	TokenTimeout sim.Time
	// MinRTO is the recovery timer.
	MinRTO sim.Time

	// Trace, when non-nil, records lifecycle/retransmit/timeout/waste events.
	Trace *trace.Ring
	// Stats aggregates transport-wide counters (zero value no-ops).
	Stats transport.Counters

	// arbiters are the receivers' token arbiters, shared by every copy
	// of the config.
	arbiters arbiters
	// arena carves the endpoints this config starts (nil: each exactly).
	arena *core.Arena[Sender, Receiver]
}

// DefaultConfig returns a reasonable setup for a fabric whose receiver
// downlinks run at downlink, with an endpoint arena of its own. A scheme
// builds it once per plane and its endpoints share it by pointer; only
// its arbiters and arena change as flows land.
func DefaultConfig(downlink units.Rate) Config {
	return Config{
		DataClass:      netem.ClassFlex,
		AckClass:       netem.ClassFlex,
		TokenClass:     netem.ClassFlex,
		FreeSegs:       8,
		OutstandingCap: 16,
		TokenTimeout:   500 * sim.Microsecond,
		MinRTO:         4 * sim.Millisecond,
		arbiters:       arbiters{downlink, map[*netem.Host]*Arbiter{}},
		arena:          core.NewArena[Sender, Receiver](),
	}
}

// participant is a flow taking part in a receiver's token arbitration.
type participant interface {
	demand() bool    // wants a token now
	sendToken()      // emit one token toward the sender
	completed() bool // flow finished (drop from the rotation)
}

// Arbiter is the per-receiver token scheduler: one token per segment
// time at the downlink rate, round-robin over flows with demand.
type Arbiter struct {
	eng  *sim.Engine
	host *netem.Host
	rate units.Rate

	flows   []participant
	rr      int
	ticking bool

	// poll is the idle retry interval: when every flow is at its
	// outstanding-token cap the arbiter re-checks at this period so token
	// expiry can fire even with no arrivals.
	poll sim.Time

	tickFn func() // pre-bound tick: one closure per arbiter, not per token

	// TokensSent counts all tokens emitted (stats).
	TokensSent int64
}

// NewArbiter builds the token scheduler for a receiver host.
func NewArbiter(eng *sim.Engine, host *netem.Host, downlink units.Rate) *Arbiter {
	a := &Arbiter{eng: eng, host: host, rate: downlink, poll: 200 * sim.Microsecond}
	a.tickFn = a.tick
	return a
}

// register adds a flow to the rotation (idempotent).
func (a *Arbiter) register(r participant) {
	for _, f := range a.flows {
		if f == r {
			return
		}
	}
	a.flows = append(a.flows, r)
	a.wake()
}

// wake starts the token clock if any flow has demand; if flows are alive
// but capped, it polls slowly so token expiry can replenish them.
func (a *Arbiter) wake() {
	if a.ticking {
		return
	}
	switch {
	case a.anyDemand():
		a.ticking = true
		a.eng.After(a.rate.TxTime(netem.MTUWire), a.tickFn)
	case a.anyIncomplete():
		a.ticking = true
		a.eng.After(a.poll, a.tickFn)
	}
}

func (a *Arbiter) anyDemand() bool {
	for _, f := range a.flows {
		if f.demand() {
			return true
		}
	}
	return false
}

func (a *Arbiter) anyIncomplete() bool {
	for _, f := range a.flows {
		if !f.completed() {
			return true
		}
	}
	return false
}

func (a *Arbiter) tick() {
	a.ticking = false
	n := len(a.flows)
	for i := 0; i < n; i++ {
		r := a.flows[a.rr]
		a.rr = (a.rr + 1) % n
		if r.demand() {
			r.sendToken()
			a.TokensSent++
			break
		}
	}
	// Compact completed flows occasionally.
	if n > 16 {
		alive := a.flows[:0]
		for _, f := range a.flows {
			if !f.completed() {
				alive = append(alive, f)
			}
		}
		a.flows = alive
		if a.rr >= len(a.flows) {
			a.rr = 0
		}
	}
	a.wake()
}

// Sender is the pHost send side: free first-RTT segments, then
// token-clocked transmission.
type Sender struct {
	cfg  *Config
	eng  *sim.Engine
	flow *transport.Flow

	trk core.SegTracker
	rec core.RecoveryTimer

	finished bool
}

// NewSender builds the send side, carved from the config's arena.
func NewSender(eng *sim.Engine, flow *transport.Flow, cfg *Config) *Sender {
	a := cfg.arena.Or()
	s := a.Sender()
	*s = Sender{cfg: cfg, eng: eng, flow: flow, trk: core.NewSegTracker(&a.Segs, flow.Segs())}
	s.rec.Init(eng, s, core.RecoveryConfig{MaxShift: 4})
	return s
}

// Begin fires the free first-RTT window (which doubles as the request).
func (s *Sender) Begin() {
	free := s.cfg.FreeSegs
	if free > len(s.trk.State) {
		free = len(s.trk.State)
	}
	for i := 0; i < free; i++ {
		s.transmit(s.trk.PickNew(), false)
	}
	if free == 0 {
		// Zero-length edge: still announce ourselves.
		s.transmit(0, false)
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
		Kind:   netem.KindProData,
		Class:  s.cfg.DataClass,
		Dst:    s.flow.Dst.Host.NodeID(),
		Flow:   s.flow.ID,
		Seq:    uint32(seq),
		SubSeq: uint32(seq),
		Size:   s.flow.SegWire(seq),
		SentAt: s.eng.Now(),
	}
	host.Send(pkt)
}

// BaseRTO is the recovery timer's constant MinRTO (core.RecoveryOwner).
func (s *Sender) BaseRTO() sim.Time { return s.cfg.MinRTO }

// Idle reports a finished flow (core.RecoveryOwner).
func (s *Sender) Idle() bool { return s.finished }

// Expire re-announces the flow with the oldest unacked segment (tokens
// stopped coming: either our data or the token stream was lost;
// core.RecoveryOwner).
func (s *Sender) Expire() {
	s.flow.Timeouts++
	s.cfg.Stats.Timeouts.Inc()
	s.cfg.Trace.Add(trace.Timeout, s.flow.ID, int64(s.trk.CumAck), "re-announce")
	s.rec.Bump()
	if seq := s.trk.OldestUnacked(); seq >= 0 {
		s.transmit(seq, true)
	}
	s.rec.Touch()
}

// Handle processes tokens and ACKs.
func (s *Sender) Handle(pkt *netem.Packet) {
	switch pkt.Kind {
	case netem.KindCredit: // token
		if s.finished {
			return
		}
		s.flow.CreditsGranted++
		s.cfg.Stats.CreditsGranted.Inc()
		seq, retx := s.trk.Pick()
		if seq < 0 {
			s.flow.CreditsWasted++
			s.cfg.Stats.CreditsWasted.Inc()
			s.cfg.Trace.Add(trace.CreditWaste, s.flow.ID, int64(s.trk.CumAck), "no data")
			return
		}
		s.transmit(seq, retx)
		s.cfg.Trace.Add(trace.CreditUse, s.flow.ID, int64(seq), "token")
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
	s.trk.OnAck(int(pkt.SubSeq), int(pkt.Seq), 3)
	if s.trk.Done() {
		s.finished = true
		return
	}
	s.rec.Touch()
}

// Receiver acknowledges data and participates in its host's token
// arbitration.
type Receiver struct {
	cfg     *Config
	eng     *sim.Engine
	flow    *transport.Flow
	arbiter *Arbiter
	asm     core.Reassembly

	tokensSent  int
	lastArrival sim.Time
}

// NewReceiver builds the receive side bound to the host's arbiter,
// carved from the config's arena.
func NewReceiver(eng *sim.Engine, flow *transport.Flow, arb *Arbiter, cfg *Config) *Receiver {
	a := cfg.arena.Or()
	r := a.Receiver()
	*r = Receiver{cfg: cfg, eng: eng, flow: flow, arbiter: arb, asm: core.NewReassembly(&a.Segs, flow.Segs())}
	return r
}

// completed implements participant.
func (r *Receiver) completed() bool { return r.flow.Completed }

// demand reports whether this flow should receive more tokens: data still
// missing and outstanding tokens under the cap. Tokens whose data never
// arrived expire after TokenTimeout of silence and are re-issued.
func (r *Receiver) demand() bool {
	if r.flow.Completed || r.asm.Full() {
		return false
	}
	tokened := r.asm.Received - r.cfg.FreeSegs // free segs arrive untokened
	if tokened < 0 {
		tokened = 0
	}
	outstanding := r.tokensSent - tokened
	if outstanding < r.cfg.OutstandingCap {
		return true
	}
	if r.eng.Now()-r.lastArrival > r.cfg.TokenTimeout {
		// Expire the stuck allowance: the data for those tokens is gone.
		r.tokensSent = tokened
		return true
	}
	return false
}

func (r *Receiver) sendToken() {
	r.tokensSent++
	r.cfg.Stats.CreditsIssued.Inc()
	r.cfg.Trace.Add(trace.CreditIssue, r.flow.ID, int64(r.tokensSent), "token")
	host := r.flow.Dst.Host
	tok := host.NewPacket()
	*tok = netem.Packet{
		Kind:   netem.KindCredit,
		Class:  r.cfg.TokenClass,
		Dst:    r.flow.Src.Host.NodeID(),
		Flow:   r.flow.ID,
		Size:   netem.CtrlSize,
		SentAt: r.eng.Now(),
	}
	host.Send(tok)
}

// Handle processes data packets.
func (r *Receiver) Handle(pkt *netem.Packet) {
	if pkt.Kind != netem.KindProData {
		return
	}
	r.lastArrival = r.eng.Now()
	r.arbiter.register(r)
	r.asm.Deliver(r.flow, r.cfg.Stats, int(pkt.SubSeq))
	core.SendAck(r.flow, netem.KindAckPro, r.cfg.AckClass, pkt, uint32(r.asm.Cum), false)
	if r.asm.Full() && !r.flow.Completed {
		core.Complete(r.eng, r.flow, r.cfg.Stats, r.cfg.Trace)
		return
	}
	r.arbiter.wake()
}

// StartSender wires only the send side, on the source host's engine, and
// begins the flow with its RTS.
func (cfg *Config) StartSender(eng *sim.Engine, flow *transport.Flow) {
	s := NewSender(eng, flow, cfg)
	core.StartSenderSide(flow, s, cfg.Stats, cfg.Trace, transport.SchemePHost)
	s.Begin()
}

// StartReceiver wires only the receive side onto the destination host's
// arbiter, made on the destination host's engine by the first flow that
// lands there.
func (cfg *Config) StartReceiver(eng *sim.Engine, flow *transport.Flow) {
	core.StartReceiverSide(flow, NewReceiver(eng, flow, cfg.arbiters.of(eng, flow.Dst.Host), cfg))
}

// arbiters holds one token arbiter per destination host, pacing tokens
// at the downlink rate: pHost serialises tokens per receiver downlink, so
// every flow that lands on a host shares its arbiter.
type arbiters struct {
	downlink units.Rate
	byHost   map[*netem.Host]*Arbiter
}

// of returns host's arbiter, making it on first use on eng, the engine of
// the downlink it paces.
func (a arbiters) of(eng *sim.Engine, host *netem.Host) *Arbiter {
	arb := a.byHost[host]
	if arb == nil {
		arb = NewArbiter(eng, host, a.downlink)
		a.byHost[host] = arb
	}
	return arb
}
