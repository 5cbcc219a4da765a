// Package core hosts the sender/receiver machinery shared by the
// transport implementations: the lazy recovery-timer state machine, the
// SACK-style segment tracker, receive-side reassembly and completion
// accounting, and the ExpressPass credit pacer (reused by FlexPass's
// proactive sub-flow).
//
// Everything here is timing-exact: the extraction out of the individual
// transports is gated by golden flow digests, so the helpers reproduce
// each transport's event sequence bit for bit (see the RecoveryConfig
// knobs for the deliberate asymmetries between DCTCP and the
// credit-clocked transports).
//
// The helpers are values: a sender embeds its RecoveryTimer and
// SegTracker, a receiver its Reassembly and Pacer, and both halves and
// their per-segment arrays are carved from the Arena their config points
// to, so a flow's own heap objects are only the callbacks its timers
// bind. Configs are shared by pointer, built once per scheme, and never
// written after.
package core

import "flexpass/internal/sim"

// RecoveryOwner is the sender a RecoveryTimer serves. The sender
// implements it as methods and embeds the timer by value, so a flow's
// recovery state binds no closures.
type RecoveryOwner interface {
	// BaseRTO returns the un-backed-off timeout (a constant MinRTO for
	// the credit transports; srtt+4·rttvar floored at MinRTO for DCTCP).
	BaseRTO() sim.Time
	// Expire fires when the deadline truly passed. It runs with the timer
	// idle; re-arm with Touch when retransmission was scheduled.
	Expire()
	// Idle reports that no timeout should be outstanding (flow finished,
	// or nothing in flight). A pending check dissolves silently when it
	// wakes idle.
	Idle() bool
}

// RecoveryConfig parameterizes a RecoveryTimer.
type RecoveryConfig struct {
	// MaxShift caps the exponential-backoff shift applied to BaseRTO when
	// computing the deadline (4 for the credit transports, 6 for DCTCP).
	MaxShift uint8
	// ShiftOnArm arms the hardware timer with the backoff-shifted RTO
	// (DCTCP) instead of the plain base (credit transports). Either way
	// the deadline re-checked at wakeup uses the shifted value.
	ShiftOnArm bool
}

// RecoveryTimer is the lazy retransmission-timeout state machine every
// sender shares: rather than cancelling and recreating an engine timer
// per ACK (which floods the event heap), at most one check is pending and
// it re-derives the true deadline from the last progress stamp when it
// fires.
type RecoveryTimer struct {
	owner   RecoveryOwner
	eng     *sim.Engine
	backoff uint
	last    sim.Time
	checkFn func() // pre-bound check: one closure per flow, not per arm
	cfg     RecoveryConfig
	pending bool
}

// Init readies the timer embedded in owner, idle; Touch arms it.
func (t *RecoveryTimer) Init(eng *sim.Engine, owner RecoveryOwner, cfg RecoveryConfig) {
	*t = RecoveryTimer{owner: owner, eng: eng, cfg: cfg}
	t.checkFn = t.check
}

// Touch stamps progress now and makes sure a check is pending (unless
// the flow is idle). Call it after every send and every ACK.
func (t *RecoveryTimer) Touch() {
	t.last = t.eng.Now()
	if t.pending || t.owner.Idle() {
		return
	}
	t.pending = true
	delay := t.owner.BaseRTO()
	if t.cfg.ShiftOnArm {
		delay = t.rto()
	}
	t.eng.After(delay, t.checkFn)
}

// Bump increases the exponential backoff (call on each timeout).
func (t *RecoveryTimer) Bump() { t.backoff++ }

// Reset clears the backoff (call when the flow makes progress).
func (t *RecoveryTimer) Reset() { t.backoff = 0 }

// Backoff exposes the consecutive-timeout count.
func (t *RecoveryTimer) Backoff() uint { return t.backoff }

// rto is the backoff-shifted timeout used for the deadline.
func (t *RecoveryTimer) rto() sim.Time {
	bo := t.backoff
	if bo > uint(t.cfg.MaxShift) {
		bo = uint(t.cfg.MaxShift)
	}
	return t.owner.BaseRTO() << bo
}

func (t *RecoveryTimer) check() {
	t.pending = false
	if t.owner.Idle() {
		return
	}
	deadline := t.last + t.rto()
	if t.eng.Now() < deadline {
		t.pending = true
		t.eng.At(deadline, t.checkFn)
		return
	}
	t.owner.Expire()
}
