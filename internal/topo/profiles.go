package topo

import (
	"flexpass/internal/netem"
	"flexpass/internal/units"
)

// Spec parameterizes the queue layouts of §4.1/§6. Zero values get the
// paper's simulation defaults from Defaults.
type Spec struct {
	// WQ is w_q, the fraction of bandwidth reserved for the FlexPass (or
	// ExpressPass-under-oWF) queue. The credit queue's rate limit is
	// scaled to WQ so proactive data takes at most WQ of the line rate.
	WQ float64

	// FlexECN is the Q1 ECN marking threshold (65kB in §6.2).
	FlexECN units.ByteSize
	// FlexRed is the Q1 selective-dropping threshold for red (reactive)
	// packets (150kB in §6.2). Zero disables selective dropping.
	FlexRed units.ByteSize
	// LegacyECN is the legacy queue's DCTCP marking threshold (100kB).
	LegacyECN units.ByteSize
}

// creditCap is the credit queue's private buffer (<1KB in the paper).
const creditCap = 1 * units.KB

// Defaults fills zero fields with the paper's §6.2 values.
func (s Spec) Defaults() Spec {
	if s.WQ == 0 {
		s.WQ = 0.5
	}
	if s.FlexECN == 0 {
		s.FlexECN = 65 * units.KB
	}
	if s.FlexRed == 0 {
		s.FlexRed = 150 * units.KB
	}
	if s.LegacyECN == 0 {
		s.LegacyECN = 100 * units.KB
	}
	return s
}

// FlexPassProfile is the paper's deployment layout: Q0 credits (strict
// priority, rate-limited to WQ), Q1 FlexPass data+control (DWRR weight WQ,
// ECN marking, red selective dropping), Q2 legacy (DWRR weight 1-WQ, ECN
// for DCTCP).
func FlexPassProfile(s Spec) PortProfile {
	s = s.Defaults()
	return func(rate units.Rate) netem.PortConfig {
		return netem.PortConfig{Queues: []netem.QueueConfig{
			{Name: "Q0-credit", Band: 0, CapBytes: creditCap, RateLimit: netem.CreditRateFor(rate, s.WQ)},
			{Name: "Q1-flex", Band: 1, Weight: s.WQ, ECNThreshold: s.FlexECN, RedDropThreshold: s.FlexRed},
			{Name: "Q2-legacy", Band: 1, Weight: 1 - s.WQ, ECNThreshold: s.LegacyECN},
		}}
	}
}

// OWFProfile is the oracle weighted-fair-queueing baseline: ExpressPass
// data in its own queue with the oracle weight (the true fraction of
// ExpressPass traffic), no ECN/selective dropping on Q1 (pure
// ExpressPass), legacy in Q2.
func OWFProfile(s Spec) PortProfile {
	s = s.Defaults()
	return func(rate units.Rate) netem.PortConfig {
		return netem.PortConfig{Queues: []netem.QueueConfig{
			{Name: "Q0-credit", Band: 0, CapBytes: creditCap, RateLimit: netem.CreditRateFor(rate, s.WQ)},
			{Name: "Q1-xpass", Band: 1, Weight: s.WQ},
			{Name: "Q2-legacy", Band: 1, Weight: 1 - s.WQ, ECNThreshold: s.LegacyECN},
		}}
	}
}

// NaiveProfile is the naïve ExpressPass deployment: credits at the full
// line-rate allocation, data and legacy traffic sharing one queue with the
// DCTCP marking threshold.
func NaiveProfile(s Spec) PortProfile {
	s = s.Defaults()
	return func(rate units.Rate) netem.PortConfig {
		return netem.PortConfig{
			Queues: []netem.QueueConfig{
				{Name: "Q0-credit", Band: 0, CapBytes: creditCap, RateLimit: netem.CreditRateFor(rate, 1.0)},
				{Name: "Q1-shared", Band: 1, ECNThreshold: s.LegacyECN},
			},
			Classify: func(p *netem.Packet) int {
				if p.Class == netem.ClassCredit {
					return 0
				}
				return 1
			},
		}
	}
}

// LayeringProfile is the LY scheme's network side, identical to the naïve
// layout (the layering happens at the host: a DCTCP window gates
// credit-triggered sends, and ExpressPass data is ECN-capable).
func LayeringProfile(s Spec) PortProfile { return NaiveProfile(s) }

// AltQueueProfile is the §4.3 "alternative queueing" ablation: proactive
// sub-flow data alone in Q1 (no selective dropping needed), reactive
// sub-flow data in Q2 together with legacy traffic.
func AltQueueProfile(s Spec) PortProfile {
	s = s.Defaults()
	return func(rate units.Rate) netem.PortConfig {
		return netem.PortConfig{Queues: []netem.QueueConfig{
			{Name: "Q0-credit", Band: 0, CapBytes: creditCap, RateLimit: netem.CreditRateFor(rate, s.WQ)},
			{Name: "Q1-pro", Band: 1, Weight: s.WQ},
			{Name: "Q2-mixed", Band: 1, Weight: 1 - s.WQ, ECNThreshold: s.LegacyECN},
		}}
	}
}

// PlainProfile is a single FIFO queue with a DCTCP ECN threshold — the
// 0%-deployment (all legacy) configuration.
func PlainProfile(legacyECN units.ByteSize) PortProfile {
	return func(rate units.Rate) netem.PortConfig {
		return netem.PortConfig{
			Queues:   []netem.QueueConfig{{Name: "Q0", ECNThreshold: legacyECN}},
			Classify: func(*netem.Packet) int { return 0 },
		}
	}
}
