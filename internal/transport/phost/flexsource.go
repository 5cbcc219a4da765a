package phost

import (
	"flexpass/internal/netem"
	"flexpass/internal/sim"
	"flexpass/internal/trace"
	"flexpass/internal/transport"
)

// FlexSource adapts pHost token arbitration to FlexPass's CreditSource
// interface (the paper's §4.3: "FlexPass can also apply other credit
// allocation algorithms, e.g., pHost [...] in non-blocking networks").
// The receiver-side arbiter paces tokens at the downlink rate and
// round-robins across its flows; the tokens travel in the credit queue
// (Class 0), so the fabric's w_q-scaled credit rate limiters still bound
// the proactive sub-flow exactly as with ExpressPass — which is what
// keeps legacy co-existence intact under an allocator that has no rate
// feedback of its own.
type FlexSource struct {
	cfg  *Config
	eng  *sim.Engine
	arb  *Arbiter
	flow *transport.Flow
	membership

	seq         uint32
	echoCount   int
	echoHi      uint32
	lastArrival sim.Time
	active      bool
}

// NewFlexSource builds a CreditSource for flow backed by the receiver
// host's arbiter. Pass it to flexpass.Config.NewCreditSource. Its tokens
// ride the rate-limited credit queue, under pHost's outstanding cap and
// token timeout; cfg gives the stats and the trace.
func NewFlexSource(eng *sim.Engine, arb *Arbiter, flow *transport.Flow, cfg *Config) *FlexSource {
	return &FlexSource{cfg: cfg, eng: eng, arb: arb, flow: flow}
}

// Start implements flexpass.CreditSource.
func (s *FlexSource) Start() {
	if s.active {
		return
	}
	s.active = true
	s.lastArrival = s.eng.Now()
	s.arb.register(s)
}

// Stop implements flexpass.CreditSource.
func (s *FlexSource) Stop() { s.active = false }

// OnData implements flexpass.CreditSource: echo-based delivery
// accounting, used for the outstanding-token bound.
func (s *FlexSource) OnData(echo uint32) {
	s.echoCount++
	if echo+1 > s.echoHi {
		s.echoHi = echo + 1
	}
	s.lastArrival = s.eng.Now()
	s.arb.wake()
}

// completed implements participant.
func (s *FlexSource) completed() bool { return s.flow.Completed || !s.active }

// demand implements participant: tokens flow while the transfer is
// incomplete and outstanding tokens stay under the cap; a silent period
// expires the stuck allowance (token expiry).
func (s *FlexSource) demand() bool {
	if s.completed() {
		return false
	}
	outstanding := int(s.seq) - s.echoCount
	if outstanding < outstandingCap {
		return true
	}
	if s.eng.Now()-s.lastArrival > tokenTimeout {
		s.echoCount = int(s.seq) // expire
		return true
	}
	return false
}

// sendToken implements participant.
func (s *FlexSource) sendToken() {
	s.cfg.Stats.CreditsIssued.Inc()
	s.cfg.Trace.Add(trace.CreditIssue, s.flow.ID, int64(s.seq), "token")
	host := s.flow.Dst.Host
	tok := host.NewPacket()
	*tok = netem.Packet{
		Kind:   netem.KindCredit,
		Class:  netem.ClassCredit,
		Dst:    s.flow.Src.Host.NodeID(),
		Flow:   s.flow.ID,
		SubSeq: s.seq,
		Size:   netem.CreditSize,
		SentAt: s.eng.Now(),
	}
	host.Send(tok)
	s.seq++
}
