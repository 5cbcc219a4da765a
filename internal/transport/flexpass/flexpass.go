// Package flexpass implements the paper's transport: a FlexPass flow is
// split into a credit-scheduled proactive sub-flow (ExpressPass credits at
// the w_q-scaled rate) and an opportunistic reactive sub-flow (DCTCP on
// red-colored, ECN-capable unscheduled packets), co-scheduled at the host
// by the per-packet state machine of Fig 4:
//
//	Pending → SentReactive → {ACKed, Lost, SentProactive}
//	Pending → SentProactive → {ACKed, Lost}
//	Lost → SentProactive (loss recovery uses only the proactive sub-flow)
//
// On each credit the sender transmits, in priority order: a Lost segment,
// a Pending segment, or — "proactive retransmission" — the oldest unacked
// segment sent reactively. The receiver reassembles by per-flow sequence
// number and discards duplicates.
package flexpass

import (
	"math/bits"

	"flexpass/internal/netem"
	"flexpass/internal/obs"
	"flexpass/internal/sim"
	"flexpass/internal/trace"
	"flexpass/internal/transport"
	"flexpass/internal/transport/core"
)

// CreditSource abstracts the receiver-side credit allocator that drives
// the proactive sub-flow. The default is the ExpressPass pacer; §4.3
// names pHost-style token arbitration as an alternative for non-blocking
// fabrics (see phost.NewFlexSource). Any allocator's credits are still
// disciplined by the network's Q0 rate limiters.
type CreditSource interface {
	// Start begins issuing credits toward the sender.
	Start()
	// Stop halts credit issue (flow complete).
	Stop()
	// OnData reports a credit-scheduled data arrival and the credit
	// sequence number it echoes (for loss feedback).
	OnData(echo uint32)
}

// Config parameterizes a FlexPass connection.
type Config struct {
	ProClass netem.Class // queue class of proactive data (Q1)
	ReClass  netem.Class // queue class of reactive data (Q1; Q2 in the AltQ ablation)
	AckClass netem.Class // queue class of ACKs (Q1, FlexPass control)
	Pacer    core.PacerConfig

	// NewCreditSource, when non-nil, replaces the default ExpressPass
	// pacer with a custom allocator (§4.3 extensibility).
	NewCreditSource func(eng *sim.Engine, flow *transport.Flow) CreditSource

	InitCwnd float64  // reactive sub-flow initial window (segments)
	MinRTO   sim.Time // recovery timer (credit re-request)

	// RC3Split enables the §4.3 ablation: instead of one shared Pending
	// pool, the reactive sub-flow transmits from the end of the flow
	// backwards (RC3-style), overlapping with the proactive sub-flow in
	// the middle.
	RC3Split bool

	// DisableProRetx turns off "proactive retransmission" (§4.2) — the
	// third transmission priority that re-sends unacknowledged reactive
	// segments on spare credits. Ablation only: tail losses then wait
	// for the recovery timer, exactly the failure mode the paper's
	// design avoids.
	DisableProRetx bool

	// PreCreditOnly restricts the reactive sub-flow to the first window
	// (Aeolus-style, Hu et al. SIGCOMM 2020): unscheduled packets are
	// sent only in the pre-credit RTT, and the flow is credit-scheduled
	// afterwards. §7 contrasts FlexPass with exactly this design — the
	// reactive sub-flow working for the flow's whole lifetime is what
	// lets FlexPass soak up bandwidth legacy traffic leaves over.
	PreCreditOnly bool

	// Trace, when non-nil, records retransmission and timeout decisions.
	Trace *trace.Ring

	// Stats aggregates transport-wide counters (zero value no-ops).
	Stats transport.Counters
	// RxPro and RxRe split Stats.RxBytes by the sub-flow that delivered
	// the bytes (nil no-ops).
	RxPro, RxRe *obs.Counter

	// Reactive selects the reactive sub-flow's congestion control
	// (default DCTCP; see reactive.go for the §4.3 extension point).
	Reactive ReactiveCC

	// records is the free list every sender of this config takes its
	// transmission records from (nil: the heap), and arena carves the
	// endpoints it starts (nil: each exactly). The config's fields are
	// never written; the list and arena they point to, like Stats, are.
	records *recordArrays
	arena   *core.Arena[Sender, Receiver]
}

// DefaultConfig returns the paper's FlexPass setup given the per-flow
// credit pacer configuration, with a free list of its own for its
// senders' transmission records and an endpoint arena. A scheme builds it
// once per plane and its endpoints share it by pointer, read-only, from
// the plane's one goroutine.
func DefaultConfig(p core.PacerConfig) Config {
	return Config{
		ProClass: netem.ClassFlex,
		ReClass:  netem.ClassFlex,
		AckClass: netem.ClassFlex,
		Pacer:    p,
		InitCwnd: 10,
		MinRTO:   4 * sim.Millisecond,
		records:  new(recordArrays),
		arena:    core.NewArena[Sender, Receiver](),
	}
}

// recordArrays is a free list of txRecord arrays, one stack per
// power-of-two capacity. A sub-flow that outgrows its array takes the
// next size up here and gives the old one back, and a finished sender
// gives back both of its own, so a plane's records take about as much
// memory as its busiest moment needs. It belongs to one scheme instance,
// on one engine: no lock. A nil list allocates every array from the heap
// and keeps none.
type recordArrays struct {
	free [bits.UintSize][][]txRecord // free[k]: arrays of capacity 1<<k
}

// get returns an empty array with room for n > 0 records: n rounded up
// to a power of two.
func (l *recordArrays) get(n int) []txRecord {
	k := bits.Len(uint(n - 1))
	if l != nil {
		if stack := l.free[k]; len(stack) > 0 {
			l.free[k] = stack[:len(stack)-1]
			return stack[len(stack)-1]
		}
	}
	return make([]txRecord, 0, 1<<k)
}

// put keeps rs, an array get handed out, for the next get of its size.
// Nil lists and arrays no-op.
func (l *recordArrays) put(rs []txRecord) {
	if l != nil && cap(rs) > 0 {
		k := bits.Len(uint(cap(rs))) - 1
		l.free[k] = append(l.free[k], rs[:0])
	}
}

// Flow-segment states (Fig 4).
const (
	stPending uint8 = iota
	stSentRe
	stSentPro
	stLost
	stAcked
)

// Sub-flow per-transmission states.
const (
	subSent uint8 = iota
	subAcked
	subLost
)

// txRecord is one transmission of a sub-flow, indexed by its sub-flow
// sequence: when it left, the flow segment it carried, and its state.
type txRecord struct {
	at    sim.Time
	seg   int32
	state uint8
}

// Sender is the FlexPass send side.
type Sender struct {
	cfg  *Config
	eng  *sim.Engine
	flow *transport.Flow

	st          []uint8 // per flow segment
	segReSub    []int32 // flow segment → its reactive transmission (-1 none)
	lostQ       core.LostQueue
	nextPending int // forward scan for Pending
	tailPending int // backward scan (RC3 mode)
	ackedCount  int

	// Reactive sub-flow (no retransmissions of its own).
	win           reactiveWindow // &dwin or &rwin, by cfg.Reactive
	dwin          dctcpWindow
	rwin          renoWindow
	reECT         bool       // reactive packets ECN-capable?
	re            []txRecord // per reactive transmission
	reOutstanding int
	reCum         int
	reSackHigh    int
	reDupAcks     int

	// Proactive sub-flow (credit-clocked).
	pro         []txRecord // per proactive transmission
	srtt        sim.Time   // smoothed RTT from ACK timestamp echoes
	proCum      int
	proSackHigh int
	proDupAcks  int
	reRetxScan  int // oldest unacked reactive transmission (for proactive retx)
	proTailScan int // oldest unacked proactive transmission (tail robustness)
	rackScan    int // time-ordered reactive loss-detection scan

	pumped   bool // first reactive window sent (PreCreditOnly)
	rec      core.RecoveryTimer
	finished bool
}

// NewSender builds the send side, carved from the config's arena; Begin
// starts both sub-flows.
func NewSender(eng *sim.Engine, flow *transport.Flow, cfg *Config) *Sender {
	segs := flow.Segs()
	a := cfg.arena.Or()
	s := a.Sender()
	*s = Sender{
		cfg:         cfg,
		eng:         eng,
		flow:        flow,
		st:          a.States(segs),
		segReSub:    a.Seqs(segs),
		tailPending: segs - 1,
		reECT:       ecnCapableFor(cfg.Reactive),
	}
	for i := range s.segReSub {
		s.segReSub[i] = -1
	}
	s.initReactiveWindow()
	s.rec.Init(eng, s, core.RecoveryConfig{MaxShift: 4})
	return s
}

// Begin issues the credit request and fires the reactive first window —
// the reactive sub-flow uses the first RTT that credits need to arrive.
func (s *Sender) Begin() {
	s.sendCreditRequest()
	s.pumpReactive()
	s.rec.Touch()
}

// Cwnd exposes the reactive window for tests.
func (s *Sender) Cwnd() float64 { return s.win.Cwnd() }

// sendCreditRequest issues the flow-start request. Requests are FlexPass
// control packets (their own DSCP in §5) and travel in the control/data
// queue as green packets, not in the rate-limited credit queue, so an
// incast of flow starts cannot wipe them out.
func (s *Sender) sendCreditRequest() {
	host := s.flow.Src.Host
	pkt := host.NewPacket()
	*pkt = netem.Packet{
		Kind:   netem.KindCreditReq,
		Class:  s.cfg.AckClass,
		Dst:    s.flow.Dst.Host.NodeID(),
		Flow:   s.flow.ID,
		Size:   netem.CtrlSize,
		SentAt: s.eng.Now(),
	}
	host.Send(pkt)
}

// BaseRTO is the recovery timer's constant MinRTO (core.RecoveryOwner).
func (s *Sender) BaseRTO() sim.Time { return s.cfg.MinRTO }

// Idle reports a finished flow (core.RecoveryOwner).
func (s *Sender) Idle() bool { return s.finished }

// Expire fires only when credits and ACKs both stopped for a full RTO
// (e.g. the credit request was lost before any data got through). It
// re-requests credits and requeues every unacked transmission for
// proactive recovery (core.RecoveryOwner).
func (s *Sender) Expire() {
	s.flow.Timeouts++
	s.cfg.Stats.Timeouts.Inc()
	s.rec.Bump()
	s.cfg.Trace.Add(trace.Timeout, s.flow.ID, int64(s.ackedCount), "recovery timer fired")
	s.sendCreditRequest()
	for sub := s.reCum; sub < len(s.re); sub++ {
		if tx := &s.re[sub]; tx.state == subSent {
			tx.state = subLost
			s.reOutstanding--
			s.markSegLost(int(tx.seg))
		}
	}
	for sub := s.proCum; sub < len(s.pro); sub++ {
		if tx := &s.pro[sub]; tx.state == subSent {
			tx.state = subLost
			s.markProLost(int(tx.seg))
		}
	}
	s.win.OnTimeout()
	s.cfg.Trace.Addf(trace.WindowCut, s.flow.ID, int64(s.reCum), "timeout cwnd=%.1f", s.win.Cwnd())
	s.pumpReactive()
	s.rec.Touch()
}

// rackDetect is time-based loss detection for the reactive sub-flow
// (RACK-style): a reactive transmission unacknowledged for ~2 RTTs is
// declared lost. Duplicate-ACK detection alone deadlocks when an entire
// burst drops (an incast first window leaves no survivors to generate
// dupACKs), which would leave the reactive window pinned shut until the
// proactive sub-flow drains the whole flow.
func (s *Sender) rackDetect() {
	if s.srtt == 0 {
		return
	}
	cutoff := s.eng.Now() - 2*s.srtt
	newLoss := false
	for s.rackScan < len(s.re) && s.re[s.rackScan].at <= cutoff {
		if tx := &s.re[s.rackScan]; tx.state == subSent {
			tx.state = subLost
			s.reOutstanding--
			s.markSegLost(int(tx.seg))
			newLoss = true
		}
		s.rackScan++
	}
	if newLoss {
		s.win.OnLoss(s.reCum, len(s.re))
		s.cfg.Trace.Addf(trace.WindowCut, s.flow.ID, int64(s.reCum), "rack cwnd=%.1f", s.win.Cwnd())
	}
}

// markSegLost moves a flow segment to Lost unless it is already recovered
// or being recovered proactively.
func (s *Sender) markSegLost(seg int) {
	if s.st[seg] == stSentRe {
		s.lose(seg)
	}
}

// markProLost moves a flow segment whose proactive transmission was lost
// to Lost, unless it was recovered or re-sent since.
func (s *Sender) markProLost(seg int) {
	if s.st[seg] == stSentPro {
		s.lose(seg)
	}
}

// lose marks a flow segment Lost and queues it for proactive recovery.
func (s *Sender) lose(seg int) {
	s.st[seg] = stLost
	s.lostQ.Push(&s.cfg.arena.Or().Segs, len(s.st), seg)
}

// segAcked marks a flow segment delivered (from either sub-flow's ACK).
// A segment acknowledged through the proactive path releases its pending
// reactive transmission too: otherwise a reactive window whose packets
// all dropped (e.g. an incast first-RTT burst) would stay pinned shut for
// the rest of the flow even though recovery already happened.
func (s *Sender) segAcked(seg int) {
	if s.st[seg] == stAcked {
		return
	}
	s.st[seg] = stAcked
	s.ackedCount++
	if sub := s.segReSub[seg]; sub >= 0 && s.re[sub].state == subSent {
		s.re[sub].state = subAcked
		s.reOutstanding--
	}
	if s.ackedCount >= len(s.st) {
		s.finished = true
	}
}

// nextPendingSeg hands out the next never-transmitted segment for the
// reactive sub-flow (from the tail in RC3 mode).
func (s *Sender) nextPendingSeg() int {
	if s.cfg.RC3Split {
		for s.tailPending >= 0 && s.st[s.tailPending] != stPending {
			s.tailPending--
		}
		if s.tailPending < 0 {
			return -1
		}
		seg := s.tailPending
		s.tailPending--
		return seg
	}
	for s.nextPending < len(s.st) && s.st[s.nextPending] != stPending {
		s.nextPending++
	}
	if s.nextPending >= len(s.st) {
		return -1
	}
	seg := s.nextPending
	s.nextPending++
	return seg
}

// pumpReactive fills the reactive window with Pending segments.
func (s *Sender) pumpReactive() {
	if s.finished {
		return
	}
	if s.cfg.PreCreditOnly && s.pumped {
		return // Aeolus mode: unscheduled packets only in the first RTT
	}
	s.pumped = true
	for s.reOutstanding < int(s.win.Cwnd()) {
		seg := s.nextPendingSeg()
		if seg < 0 {
			return
		}
		sub := len(s.re)
		s.re = s.record(s.re, seg)
		s.segReSub[seg] = int32(sub)
		s.reOutstanding++
		s.st[seg] = stSentRe
		host := s.flow.Src.Host
		pkt := host.NewPacket()
		*pkt = netem.Packet{
			Kind:       netem.KindReData,
			Class:      s.cfg.ReClass,
			Color:      netem.Red,
			ECNCapable: s.reECT,
			Dst:        s.flow.Dst.Host.NodeID(),
			Flow:       s.flow.ID,
			Seq:        uint32(seg),
			SubSeq:     uint32(sub),
			Size:       s.flow.SegWire(seg),
			SentAt:     s.eng.Now(),
		}
		host.Send(pkt)
	}
}

// record appends a transmission of seg, sent now, to a sub-flow's
// records. The first array holds min(segs, InitCwnd) rounded up to a
// power of two — all of a short flow's transmissions, a long flow's first
// window — and a full one is swapped for one of twice its capacity from
// the config's free list, which takes the outgrown array back.
func (s *Sender) record(rs []txRecord, seg int) []txRecord {
	if len(rs) == cap(rs) {
		want := max(2*cap(rs), min(len(s.st), int(s.cfg.InitCwnd)), 1)
		grown := append(s.cfg.records.get(want), rs...)
		s.cfg.records.put(rs)
		rs = grown
	}
	return append(rs, txRecord{at: s.eng.Now(), seg: int32(seg), state: subSent})
}

// pickProactive chooses what a fresh credit carries (§4.2 priority order).
func (s *Sender) pickProactive() (seg int, proRetx, retx bool) {
	// 1. Lost segments: loss recovery rides only the proactive sub-flow.
	for cand := s.lostQ.Pop(); cand >= 0; cand = s.lostQ.Pop() {
		if s.st[cand] == stLost {
			return cand, false, true
		}
	}
	// 2. Pending: new data.
	if !s.cfg.RC3Split {
		if seg := s.nextPendingSeg(); seg >= 0 {
			return seg, false, false
		}
	} else {
		// RC3 mode: proactive takes from the head.
		for s.nextPending < len(s.st) && s.st[s.nextPending] != stPending {
			s.nextPending++
		}
		if s.nextPending < len(s.st) {
			seg := s.nextPending
			s.nextPending++
			return seg, false, false
		}
	}
	// 3. Proactive retransmission: oldest unacked reactive transmission.
	// The scan pointer advances past each candidate it hands out, so every
	// transmission is proactively retransmitted at most once — the
	// retransmission itself is a new proactive transmission that later
	// scans cover, bounding redundancy instead of blasting the same
	// segment on every credit for a full RTT.
	// Transmissions are time-ordered, so the scan stops (without
	// advancing) at the first one whose ACK could still be in flight:
	// only transmissions older than ~1 RTT are eligible.
	if s.cfg.DisableProRetx {
		return -1, false, false
	}
	if s.srtt == 0 {
		return -1, false, false // no RTT estimate yet; recovery timer covers us
	}
	age := s.eng.Now() - s.srtt*5/4
	for s.reRetxScan < len(s.re) {
		tx := s.re[s.reRetxScan]
		if tx.at > age {
			break
		}
		s.reRetxScan++
		if seg := int(tx.seg); tx.state == subSent && s.st[seg] == stSentRe {
			return seg, true, true
		}
	}
	// 4. Tail robustness beyond the paper's list: re-send the oldest
	// unacked proactive transmission so a lost final proactive packet
	// does not have to wait for the recovery timer.
	for s.proTailScan < len(s.pro) {
		tx := s.pro[s.proTailScan]
		if tx.at > age {
			break
		}
		s.proTailScan++
		if seg := int(tx.seg); tx.state == subSent && s.st[seg] == stSentPro {
			return seg, false, true
		}
	}
	return -1, false, false
}

func (s *Sender) sendProactive(seg int, echo uint32, proRetx, retx bool) {
	sub := len(s.pro)
	s.pro = s.record(s.pro, seg)
	s.st[seg] = stSentPro
	if proRetx {
		s.flow.ProRetx++
		s.cfg.Trace.Add(trace.Retransmit, s.flow.ID, int64(seg), "proactive retransmission")
	}
	if retx {
		s.flow.Retransmits++
		s.cfg.Stats.Retransmits.Inc()
	}
	host := s.flow.Src.Host
	pkt := host.NewPacket()
	*pkt = netem.Packet{
		Kind:   netem.KindProData,
		Class:  s.cfg.ProClass,
		Color:  netem.Green,
		Dst:    s.flow.Dst.Host.NodeID(),
		Flow:   s.flow.ID,
		Seq:    uint32(seg),
		SubSeq: uint32(sub),
		Echo:   echo,
		Size:   s.flow.SegWire(seg),
		SentAt: s.eng.Now(),
	}
	host.Send(pkt)
}

// Handle processes credits and per-sub-flow ACKs. A sender finished by
// them gives its record arrays back to the free list here, once every
// loop over them has returned; a finished sender reads them no more
// (every path below and Expire, through Idle, ignore it).
func (s *Sender) Handle(pkt *netem.Packet) {
	switch pkt.Kind {
	case netem.KindCredit:
		if s.finished {
			break
		}
		s.flow.CreditsGranted++
		s.cfg.Stats.CreditsGranted.Inc()
		s.rackDetect()
		seg, proRetx, retx := s.pickProactive()
		if seg < 0 {
			s.flow.CreditsWasted++
			s.cfg.Stats.CreditsWasted.Inc()
			s.cfg.Trace.Add(trace.CreditWaste, s.flow.ID, int64(s.ackedCount), "no data")
			break
		}
		s.sendProactive(seg, pkt.SubSeq, proRetx, retx)
		s.cfg.Trace.Add(trace.CreditUse, s.flow.ID, int64(seg), "")
		s.rec.Touch()
	case netem.KindAckRe:
		s.onReactiveAck(pkt)
	case netem.KindAckPro:
		s.onProactiveAck(pkt)
	}
	if s.finished {
		s.cfg.records.put(s.re)
		s.cfg.records.put(s.pro)
		s.re, s.pro = nil, nil
	}
}

func (s *Sender) updateRTT(pkt *netem.Packet) {
	s.rec.Reset()
	sample := s.eng.Now() - pkt.SentAt
	if s.srtt == 0 {
		s.srtt = sample
	} else {
		s.srtt = (7*s.srtt + sample) / 8
	}
}

func (s *Sender) onReactiveAck(pkt *netem.Packet) {
	if s.finished {
		return
	}
	s.updateRTT(pkt)
	s.rackDetect()
	cum := int(pkt.SubSeq)
	sack := int(pkt.Seq)
	if sack < len(s.re) {
		if tx := &s.re[sack]; tx.state == subSent {
			tx.state = subAcked
			s.reOutstanding--
			s.segAcked(int(tx.seg))
		} else if tx.state == subLost {
			tx.state = subAcked
			s.segAcked(int(tx.seg))
		}
	}
	if sack > s.reSackHigh {
		s.reSackHigh = sack
	}
	if cum > s.reCum {
		for sub := s.reCum; sub < cum && sub < len(s.re); sub++ {
			if tx := &s.re[sub]; tx.state == subSent {
				tx.state = subAcked
				s.reOutstanding--
				s.segAcked(int(tx.seg))
			}
		}
		s.reCum = cum
		s.reDupAcks = 0
	} else if sack >= s.reCum {
		s.reDupAcks++
	}
	s.win.OnAck(cum, len(s.re), pkt.CE)
	// Loss: mark Lost, update the window, slide the left edge (the
	// reactive sub-flow never retransmits; recovery is proactive).
	if s.reDupAcks >= 3 {
		edge := s.reSackHigh - 2
		newLoss := false
		for sub := s.reCum; sub < edge && sub < len(s.re); sub++ {
			if tx := &s.re[sub]; tx.state == subSent {
				tx.state = subLost
				s.reOutstanding--
				s.markSegLost(int(tx.seg))
				newLoss = true
			}
		}
		if newLoss {
			s.win.OnLoss(cum, len(s.re))
			s.cfg.Trace.Addf(trace.WindowCut, s.flow.ID, int64(cum), "dupack cwnd=%.1f", s.win.Cwnd())
		}
		// Slide the left edge past lost transmissions.
		for s.reCum < len(s.re) && s.re[s.reCum].state != subSent {
			s.reCum++
		}
	}
	if s.finished {
		return
	}
	s.pumpReactive()
	s.rec.Touch()
}

func (s *Sender) onProactiveAck(pkt *netem.Packet) {
	if s.finished {
		return
	}
	s.updateRTT(pkt)
	s.rackDetect()
	cum := int(pkt.SubSeq)
	sack := int(pkt.Seq)
	if sack < len(s.pro) {
		if tx := &s.pro[sack]; tx.state != subAcked {
			tx.state = subAcked
			s.segAcked(int(tx.seg))
		}
	}
	if sack > s.proSackHigh {
		s.proSackHigh = sack
	}
	if cum > s.proCum {
		for sub := s.proCum; sub < cum && sub < len(s.pro); sub++ {
			if tx := &s.pro[sub]; tx.state != subAcked {
				tx.state = subAcked
				s.segAcked(int(tx.seg))
			}
		}
		s.proCum = cum
		s.proDupAcks = 0
	} else if sack >= s.proCum {
		s.proDupAcks++
	}
	// Non-congestion proactive losses (§4.3): detect via duplicate ACKs
	// and give the lost segment top priority on the next credit.
	if s.proDupAcks >= 3 {
		edge := s.proSackHigh - 2
		for sub := s.proCum; sub < edge && sub < len(s.pro); sub++ {
			if tx := &s.pro[sub]; tx.state == subSent {
				tx.state = subLost
				s.markProLost(int(tx.seg))
			}
		}
		for s.proCum < len(s.pro) && s.pro[s.proCum].state != subSent {
			s.proCum++
		}
	}
	if s.finished {
		return
	}
	// Releasing cross-acked reactive transmissions may have opened the
	// reactive window.
	s.pumpReactive()
	s.rec.Touch()
}

// Receiver is the FlexPass receive side: per-sub-flow ACKs, reassembly by
// flow sequence number, duplicate discard, and the credit pacer.
type Receiver struct {
	cfg   *Config
	eng   *sim.Engine
	flow  *transport.Flow
	pacer CreditSource // &ep unless cfg.NewCreditSource overrides it
	ep    core.Pacer   // the default ExpressPass pacer

	got      core.Bitmap // flow segments arrived, of segs
	segs     int
	cum      int
	received int

	receivedB  int64 // distinct payload bytes received
	deliveredB int64 // in-order bytes delivered to the app

	reGot  core.Bitmap
	reCum  int
	proGot core.Bitmap
	proCum int

	started bool
}

// NewReceiver builds the receive side, carved from the config's arena.
func NewReceiver(eng *sim.Engine, flow *transport.Flow, cfg *Config) *Receiver {
	segs := flow.Segs()
	a := cfg.arena.Or()
	r := a.Receiver()
	*r = Receiver{cfg: cfg, eng: eng, flow: flow, segs: segs,
		got: a.Bitmap(segs), reGot: a.Bitmap(segs), proGot: a.Bitmap(segs)}
	if cfg.NewCreditSource != nil {
		r.pacer = cfg.NewCreditSource(eng, flow)
	} else {
		r.ep.Init(eng, flow.Dst.Host, flow.Src.Host.NodeID(), flow.ID, &cfg.Pacer)
		r.pacer = &r.ep
	}
	return r
}

// Pacer exposes the credit source (the ExpressPass pacer by default).
func (r *Receiver) Pacer() CreditSource { return r.pacer }

// Handle processes packets of the flow.
func (r *Receiver) Handle(pkt *netem.Packet) {
	if !r.started && !r.flow.Completed {
		// Any first packet (request or reactive data) starts crediting.
		r.started = true
		r.pacer.Start()
	}
	switch pkt.Kind {
	case netem.KindCreditReq:
		// Crediting already started above.
	case netem.KindReData:
		if r.reGot.Add(int(pkt.SubSeq)) {
			for r.reGot.Has(r.reCum) {
				r.reCum++
			}
		}
		r.absorb(pkt, false)
		core.SendAck(r.flow, netem.KindAckRe, r.cfg.AckClass, pkt, uint32(r.reCum), true)
		r.checkComplete()
	case netem.KindProData:
		r.pacer.OnData(pkt.Echo)
		if r.proGot.Add(int(pkt.SubSeq)) {
			for r.proGot.Has(r.proCum) {
				r.proCum++
			}
		}
		r.absorb(pkt, true)
		core.SendAck(r.flow, netem.KindAckPro, r.cfg.AckClass, pkt, uint32(r.proCum), true)
		r.checkComplete()
	}
}

// absorb records a data packet in the flow-level reassembly buffer and
// tracks the reordering-buffer high-water mark.
func (r *Receiver) absorb(pkt *netem.Packet, proactive bool) {
	seq := int(pkt.Seq)
	if seq >= r.segs || !r.got.Add(seq) {
		r.flow.RedundantSegs++
		return
	}
	r.received++
	payload := int64(r.flow.SegPayload(seq))
	r.receivedB += payload
	r.flow.RxBytes += payload
	r.cfg.Stats.RxBytes.Add(payload)
	if proactive {
		r.flow.RxBytesPro += payload
		r.cfg.RxPro.Add(payload)
	} else {
		r.flow.RxBytesRe += payload
		r.cfg.RxRe.Add(payload)
	}
	for r.cum < r.segs && r.got.Has(r.cum) {
		r.deliveredB += int64(r.flow.SegPayload(r.cum))
		r.cum++
	}
	if buf := r.receivedB - r.deliveredB; buf > r.flow.MaxReorderB {
		r.flow.MaxReorderB = buf
	}
}

func (r *Receiver) checkComplete() {
	if r.received >= r.segs && !r.flow.Completed {
		r.pacer.Stop()
		core.Complete(r.eng, r.flow, r.cfg.Stats, r.cfg.Trace)
	}
}

// StartSender wires only the send side, on the source host's engine, and
// begins the flow.
func (cfg *Config) StartSender(eng *sim.Engine, flow *transport.Flow) {
	s := NewSender(eng, flow, cfg)
	core.StartSenderSide(flow, s, cfg.Stats, cfg.Trace, transport.SchemeFlexPass)
	s.Begin()
}

// StartReceiver wires only the receive side: the proactive credit source
// it owns runs on the destination host's engine.
func (cfg *Config) StartReceiver(eng *sim.Engine, flow *transport.Flow) {
	core.StartReceiverSide(flow, NewReceiver(eng, flow, cfg))
}
