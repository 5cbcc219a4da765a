// The ExpressPass credit pacer (Cho et al., SIGCOMM 2017): receiver-driven
// credit generation with per-flow feedback control — aggressiveness
// factor, minimum and maximum rate change (§6.2 settings). It lives in
// core because both the expresspass transport and FlexPass's proactive
// sub-flow drive it unchanged; per-link credit-queue rate limiting is done
// by the netem profiles.
package core

import (
	"flexpass/internal/netem"
	"flexpass/internal/obs"
	"flexpass/internal/sim"
	"flexpass/internal/trace"
	"flexpass/internal/units"
)

// PacerConfig parameterizes credit generation and feedback control.
type PacerConfig struct {
	CreditClass netem.Class
	// MaxRate is the ceiling credit rate (the per-link credit limit, i.e.
	// w_q-scaled line rate times the credit/data ratio).
	MaxRate units.Rate
	// InitRate is the starting credit rate (DefaultPacerConfig: MaxRate —
	// ExpressPass starts at full speed and backs off on credit loss).
	InitRate units.Rate
	// Period is the feedback update period (≈ one RTT).
	Period sim.Time
	// TargetLoss is the credit loss the feedback aims for (0.125).
	TargetLoss float64
	// Aggressiveness multiplies/divides the increase weight w (α = 2.0).
	Aggressiveness float64
	// WInit/WMin/WMax bound the increase weight.
	WInit, WMin, WMax float64
	// SMax optionally caps the per-period rate change. §6.2 quotes
	// S_max = 50Mbps of credits; we leave the cap disabled by default
	// because the weighted jump toward MaxRate on loss-free periods is
	// what equalizes competing flows (binary-search probing), and a tight
	// absolute cap would freeze unfair allocations in place. Zero
	// disables the cap.
	SMax units.Rate
	// Jitter is the relative credit-interval jitter (ExpressPass jitters
	// credit sends to avoid synchronization).
	Jitter float64

	// Trace, when non-nil, records a credit-issue event per credit sent
	// (forensics timelines). Nil no-ops.
	Trace *trace.Ring
	// Issued, when non-nil, counts credits sent (credit-conservation
	// auditing). Nil no-ops.
	Issued *obs.Counter
}

// DefaultPacerConfig returns the §6.2 parameters for a given per-flow
// credit ceiling. A scheme builds it once; every pacer of the scheme reads
// it through a pointer and none writes it.
func DefaultPacerConfig(maxRate units.Rate) PacerConfig {
	return PacerConfig{
		CreditClass:    netem.ClassCredit,
		MaxRate:        maxRate,
		InitRate:       maxRate,
		Period:         40 * sim.Microsecond,
		TargetLoss:     0.125,
		Aggressiveness: 2.0,
		// WMin 0.05 (ExpressPass uses 0.01): with only a handful of
		// competing flows, a 1% floor lets a starved flow's increase be
		// dwarfed by the leader's, freezing unfair allocations; a 5%
		// floor keeps the multiplicative-decrease equalization working.
		WInit:  0.5,
		WMin:   0.05,
		WMax:   0.5,
		Jitter: 0.1,
	}
}

// Pacer is the receiver-side credit generator of one flow, a value inside
// its receiver.
type Pacer struct {
	cfg  *PacerConfig
	eng  *sim.Engine
	host *netem.Host // the receiver host credits egress from
	dst  netem.NodeID
	flow uint64

	rate       units.Rate
	w          float64
	increasing bool

	sent int // credits sent this period

	rng sim.Stream // credit-interval jitter, keyed by (flow, receiver host)

	// Credit-loss accounting from sequence echoes: every credit carries a
	// sequence number which the triggered data packet echoes back, so the
	// receiver measures credit loss exactly (as in ExpressPass), without
	// pipeline-fill bias.
	creditSeq  uint32
	echoCount  int    // echoes received this period
	echoHi     uint32 // highest echo seen + 1
	lastEchoHi uint32 // echoHi at the previous feedback update

	active      bool
	creditTimer sim.Timer
	fbTimer     sim.Timer
}

// A pacer's two events are the pacer itself under two names, so arming
// either allocates nothing.
type (
	pacerCredit   Pacer // the next credit
	pacerFeedback Pacer // the next feedback update
)

func (p *pacerCredit) Fire()   { (*Pacer)(p).creditTick() }
func (p *pacerFeedback) Fire() { (*Pacer)(p).feedback() }

// Init readies the pacer, inactive, to send credits from host toward dst
// for flow.
func (p *Pacer) Init(eng *sim.Engine, host *netem.Host, dst netem.NodeID, flow uint64, cfg *PacerConfig) {
	*p = Pacer{
		cfg:  cfg,
		eng:  eng,
		host: host,
		dst:  dst,
		flow: flow,
		rate: cfg.InitRate,
		w:    cfg.WInit,
		rng:  eng.Stream(flow<<32 | uint64(uint32(host.NodeID()))),
	}
}

// Rate returns the current credit rate (for tests and stats).
func (p *Pacer) Rate() units.Rate { return p.rate }

// Active reports whether the pacer is emitting credits.
func (p *Pacer) Active() bool { return p.active }

// Start begins credit pacing and the feedback loop.
func (p *Pacer) Start() {
	if p.active {
		return
	}
	p.active = true
	p.scheduleCredit()
	p.fbTimer = p.eng.ScheduleAfter(p.cfg.Period, (*pacerFeedback)(p))
}

// Stop halts credit generation (flow complete).
func (p *Pacer) Stop() {
	p.active = false
	p.creditTimer.Stop()
	p.fbTimer.Stop()
}

// OnData is called by the receiver for every credit-scheduled data
// arrival, with the credit sequence number the data echoes. It feeds the
// exact credit-loss estimator.
func (p *Pacer) OnData(echo uint32) {
	p.echoCount++
	if echo+1 > p.echoHi {
		p.echoHi = echo + 1
	}
}

func (p *Pacer) interval() sim.Time {
	iv := p.rate.TxTime(netem.CreditSize)
	j := p.cfg.Jitter
	f := 1 - j + 2*j*p.rng.Float64()
	return sim.Time(float64(iv) * f)
}

func (p *Pacer) scheduleCredit() {
	p.creditTimer = p.eng.ScheduleAfter(p.interval(), (*pacerCredit)(p))
}

func (p *Pacer) creditTick() {
	if !p.active {
		return
	}
	p.sendCredit()
	p.scheduleCredit()
}

func (p *Pacer) sendCredit() {
	p.sent++
	p.cfg.Issued.Inc()
	p.cfg.Trace.Add(trace.CreditIssue, p.flow, int64(p.creditSeq), "")
	pkt := p.host.NewPacket()
	*pkt = netem.Packet{
		Kind:   netem.KindCredit,
		Class:  p.cfg.CreditClass,
		Dst:    p.dst,
		Flow:   p.flow,
		SubSeq: p.creditSeq,
		Size:   netem.CreditSize,
		SentAt: p.eng.Now(),
	}
	p.host.Send(pkt)
	p.creditSeq++
}

// feedback runs the ExpressPass credit feedback control once per period.
func (p *Pacer) feedback() {
	if !p.active {
		return
	}
	defer func() {
		p.fbTimer = p.eng.ScheduleAfter(p.cfg.Period, (*pacerFeedback)(p))
	}()
	sent := p.sent
	got := p.echoCount
	expected := int(p.echoHi - p.lastEchoHi)
	p.sent, p.echoCount, p.lastEchoHi = 0, 0, p.echoHi
	var loss float64
	switch {
	case expected > 0:
		loss = 1 - float64(got)/float64(expected)
	case sent > 0 && got == 0:
		// Credits were sent but nothing came back at all: treat as full
		// loss so the rate backs off instead of blasting a dead path.
		loss = 1
	default:
		return
	}
	if loss < 0 {
		loss = 0
	}
	old := p.rate
	var next units.Rate
	if loss <= p.cfg.TargetLoss {
		if p.increasing {
			p.w = p.w * p.cfg.Aggressiveness
			if p.w > p.cfg.WMax {
				p.w = p.cfg.WMax
			}
		}
		p.increasing = true
		next = units.Rate((1-p.w)*float64(p.rate) + p.w*float64(p.cfg.MaxRate)*(1+p.cfg.TargetLoss))
	} else {
		p.increasing = false
		next = units.Rate(float64(p.rate) * (1 - loss) * (1 + p.cfg.TargetLoss))
		p.w = p.w / p.cfg.Aggressiveness
		if p.w < p.cfg.WMin {
			p.w = p.cfg.WMin
		}
	}
	// Bound the per-period change (S_max) and the absolute rate.
	if p.cfg.SMax > 0 {
		if next > old+p.cfg.SMax {
			next = old + p.cfg.SMax
		}
		if next < old-p.cfg.SMax {
			next = old - p.cfg.SMax
		}
	}
	// Minimum: one credit per period (S_min).
	minRate := units.Rate(int64(netem.CreditSize) * 8 * int64(sim.Second) / int64(p.cfg.Period))
	if next < minRate {
		next = minRate
	}
	if next > p.cfg.MaxRate {
		next = p.cfg.MaxRate
	}
	p.rate = next
}
