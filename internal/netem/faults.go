package netem

import (
	"flexpass/internal/units"
)

// Fault injection: deterministic non-congestion failures on a port,
// modelling the paper's §4.3 failure discussion ("the proactive sub-flow
// ... can still experience non-congestion losses, e.g. due to switch
// failures") and the credit-loss sensitivity of credit-clocked transports
// (ExpressPass §5). Every random decision is drawn from the port's own
// stream, so faulty runs are exactly reproducible at any shard count:
// same seed + same fault schedule ⇒ bit-identical packet fates.
//
// Four orthogonal fault mechanisms live on each Port, applied in a fixed
// order at Send time (administrative state first, then targeted loss,
// then the loss model):
//
//  1. Down state (SetDown): the port blackholes every packet handed to it
//     and pauses its serializer. A frame already being serialized when the
//     link goes down is considered on the wire and still delivers; queued
//     frames stay buffered and resume when the link comes back up.
//  2. Degraded rate (SetRateFraction): the serializer runs at a fraction
//     of line rate. The in-flight frame finishes at the rate it started
//     with; subsequent frames use the degraded rate.
//  3. Credit-targeted loss (SetCreditLossRate): Bernoulli loss applied
//     only to KindCredit packets — the worst case for credit-clocked
//     schemes, which interpret credit loss as a congestion signal.
//  4. Burst loss (SetGilbertElliott): a two-state Gilbert–Elliott Markov
//     model. SetLossRate is the degenerate single-state case and keeps
//     its historical behaviour (one RNG draw per packet, identical
//     decision sequence), so pre-existing runs replay unchanged.

// FaultStats counts injected losses, in total and by cause.
type FaultStats struct {
	Injected   int64 // all packets dropped by fault injection
	LinkDown   int64 // dropped because the port was administratively down
	BurstLoss  int64 // dropped by the Gilbert–Elliott / Bernoulli loss model
	CreditLoss int64 // credit packets dropped by credit-targeted loss
}

// GilbertElliott parameterizes the classic two-state burst-loss model: the
// channel is either Good or Bad, each state drops packets independently
// with its own probability, and the state flips with per-packet transition
// probabilities. Mean burst (Bad-run) length is 1/PBadGood packets; mean
// gap (Good-run) length is 1/PGoodBad. The zero value disables the model.
type GilbertElliott struct {
	PGoodBad float64 // per-packet probability of a Good→Bad transition
	PBadGood float64 // per-packet probability of a Bad→Good transition
	LossGood float64 // drop probability while Good (usually 0)
	LossBad  float64 // drop probability while Bad (usually ~1)
}

// enabled reports whether the model can ever drop or change state.
func (g GilbertElliott) enabled() bool {
	return g.LossGood > 0 || g.LossBad > 0 || g.PGoodBad > 0 || g.PBadGood > 0
}

// Bernoulli returns the degenerate one-state model dropping each packet
// independently with probability rate (the historical SetLossRate).
func Bernoulli(rate float64) GilbertElliott {
	return GilbertElliott{LossGood: rate, LossBad: rate}
}

// SetLossRate makes the port drop each packet independently with the given
// probability before enqueueing it (wire corruption / silent switch
// failure). Rate 0 disables injection. Credits, ACKs, and data are all
// subject to loss, as on a real faulty link. It is the Bernoulli special
// case of SetGilbertElliott and consumes exactly one random draw per
// packet, so runs recorded before the burst-loss model existed replay
// bit-identically.
func (p *Port) SetLossRate(rate float64) {
	p.SetGilbertElliott(Bernoulli(rate))
}

// SetGilbertElliott installs (or, with the zero value, removes) the burst
// loss model. The channel starts in the Good state. Loss decisions and
// state transitions draw from the port's deterministic random stream:
// one draw per packet for the loss decision when the current state can
// drop, plus one draw when the current state can transition.
func (p *Port) SetGilbertElliott(g GilbertElliott) {
	p.ge = g
	p.geOn = g.enabled()
	p.geBad = false
}

// SetCreditLossRate makes the port drop each KindCredit packet
// independently with the given probability (rate 0 disables). Data, ACKs,
// and credit requests pass unharmed: this is the paper's worst case for
// credit-clocked transports, which must treat lost credits as wasted
// allocation without stalling the flow.
func (p *Port) SetCreditLossRate(rate float64) { p.creditLoss = rate }

// SetDown takes the port administratively down (true) or back up (false).
// While down the port blackholes every packet handed to it — counted as
// LinkDown fault drops, observed as DropLinkDown hop events — and its
// serializer pauses; already-queued frames are retained and resume
// transmission when the port comes back up. A frame mid-serialization
// when the link fails is already on the wire and still delivers.
func (p *Port) SetDown(down bool) {
	if p.down == down {
		return
	}
	p.down = down
	if !down {
		p.kick()
	}
}

// Down reports the administrative state.
func (p *Port) Down() bool { return p.down }

// SetRateFraction degrades the serializer to frac of the port's line rate
// (0 < frac < 1), or restores full rate (frac <= 0 or >= 1). The frame
// currently being serialized finishes at the rate it started with; only
// subsequent transmissions pace at the degraded rate. Queue rate limits
// (credit pacing) are unaffected — they model the switch's shaper
// configuration, not the physical link.
func (p *Port) SetRateFraction(frac float64) {
	if frac <= 0 || frac >= 1 {
		p.effRate = p.rate
		return
	}
	p.effRate = p.rate.Scale(frac)
}

// EffectiveRate returns the current serialization rate (line rate unless
// degraded by SetRateFraction).
func (p *Port) EffectiveRate() units.Rate { return p.effRate }

// FaultStats returns the injected-loss counters.
func (p *Port) FaultStats() FaultStats { return p.faults }

// injectFault applies the port's fault state to an incoming packet,
// before classification. It reports true when the packet was consumed
// (dropped and recycled).
func (p *Port) injectFault(pkt *Packet) bool {
	if p.down {
		p.faults.Injected++
		p.faults.LinkDown++
		p.dropFault(pkt, DropLinkDown)
		return true
	}
	if p.creditLoss > 0 && pkt.Kind == KindCredit && p.rng.Float64() < p.creditLoss {
		p.faults.Injected++
		p.faults.CreditLoss++
		p.dropFault(pkt, DropCreditLoss)
		return true
	}
	if p.geOn {
		loss := p.ge.LossGood
		if p.geBad {
			loss = p.ge.LossBad
		}
		drop := loss > 0 && p.rng.Float64() < loss
		// State transition after the loss decision; a state that cannot
		// transition consumes no randomness, which keeps the historical
		// single-draw-per-packet sequence of the Bernoulli case intact.
		if p.geBad {
			if p.ge.PBadGood > 0 && p.rng.Float64() < p.ge.PBadGood {
				p.geBad = false
			}
		} else {
			if p.ge.PGoodBad > 0 && p.rng.Float64() < p.ge.PGoodBad {
				p.geBad = true
			}
		}
		if drop {
			p.faults.Injected++
			p.faults.BurstLoss++
			p.dropFault(pkt, DropFault)
			return true
		}
	}
	return false
}

// dropFault records and recycles a fault-dropped packet. Fault drops are
// injection accounting, never queue drops: they happen before
// classification, so hop observers see queue -1.
func (p *Port) dropFault(pkt *Packet, reason DropReason) {
	if p.hop != nil {
		p.hop.HopDrop(p.eng.Now(), p, -1, pkt, reason)
	}
	p.pool.put(pkt)
}
