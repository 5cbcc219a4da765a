package flexpass

import (
	"maps"
	"testing"

	"flexpass/internal/netem"
	"flexpass/internal/sim"
	"flexpass/internal/topo"
	"flexpass/internal/transport"
	"flexpass/internal/transport/core"
	"flexpass/internal/transport/dctcp"
	"flexpass/internal/units"
)

// Start begins both halves of a FlexPass flow on one engine:
// StartReceiver, then StartSender.
func Start(eng *sim.Engine, flow *transport.Flow, cfg Config) (*Sender, *Receiver) {
	flow.Src.Flows.Add(flow)
	cfg.StartReceiver(eng, flow)
	cfg.StartSender(eng, flow)
	return flow.Sender.(*Sender), flow.Receiver.(*Receiver)
}

const gig = units.Gbps

// flexFabric builds a single-switch fabric with the FlexPass queue layout.
func flexFabric(hosts int, rate units.Rate, spec topo.Spec) (*sim.Engine, *topo.Fabric, []*transport.Agent) {
	eng := sim.NewEngine(1)
	f := topo.SingleSwitch(eng, hosts, topo.Params{
		LinkRate:  rate,
		LinkDelay: 2 * sim.Microsecond,
		HostDelay: 1 * sim.Microsecond,
		SwitchBuf: 4500 * units.KB,
		BufAlpha:  0.25,
		Profile:   topo.FlexPassProfile(spec),
	})
	agents := make([]*transport.Agent, hosts)
	table := new(transport.Flows)
	for i := range agents {
		agents[i] = transport.NewAgent(eng, f.Net.Host(i), table)
	}
	return eng, f, agents
}

func flexCfg(rate units.Rate, wq float64) Config {
	return DefaultConfig(core.DefaultPacerConfig(netem.CreditRateFor(rate, wq)))
}

func fpFlow(id uint64, src, dst *transport.Agent, size int64) *transport.Flow {
	return &transport.Flow{ID: id, Src: src, Dst: dst, Size: size, Transport: "flexpass"}
}

func TestSingleFlowFillsLinkWithBothSubflows(t *testing.T) {
	// Fig 7(a): alone on the link, the proactive sub-flow takes ~w_q of
	// capacity and the reactive sub-flow grabs the rest.
	eng, _, ag := flexFabric(2, 10*gig, topo.Spec{})
	fl := fpFlow(1, ag[0], ag[1], 1<<30)
	Start(eng, fl, flexCfg(10*gig, 0.5))
	eng.Run(40 * sim.Millisecond)
	total := units.RateOf(fl.RxBytes, 40*sim.Millisecond)
	if total < 8*gig {
		t.Fatalf("total goodput %v, want >8Gbps", total)
	}
	proShare := float64(fl.RxBytesPro) / float64(fl.RxBytes)
	if proShare < 0.3 || proShare > 0.7 {
		t.Fatalf("proactive share %.3f, want ~0.5", proShare)
	}
	if fl.Timeouts != 0 {
		t.Fatalf("timeouts = %d, want 0", fl.Timeouts)
	}
}

func TestFlexPassSharesFairlyWithDCTCP(t *testing.T) {
	// Fig 9(b): FlexPass vs DCTCP ≈ 50/50, no starvation.
	eng, _, ag := flexFabric(3, 10*gig, topo.Spec{})
	fp := fpFlow(1, ag[0], ag[2], 1<<30)
	dc := &transport.Flow{ID: 2, Src: ag[1], Dst: ag[2], Size: 1 << 30, Transport: "dctcp", Legacy: true}
	Start(eng, fp, flexCfg(10*gig, 0.5))
	legacy := dctcp.LegacyConfig()
	dc.Src.Flows.Add(dc)
	legacy.StartReceiver(eng, dc)
	legacy.StartSender(eng, dc)
	eng.Run(60 * sim.Millisecond)
	tot := fp.RxBytes + dc.RxBytes
	dcShare := float64(dc.RxBytes) / float64(tot)
	if dcShare < 0.35 || dcShare > 0.65 {
		t.Fatalf("DCTCP share %.3f, want ~0.5 (no starvation)", dcShare)
	}
	if units.RateOf(tot, 60*sim.Millisecond) < 7*gig {
		t.Fatalf("link underutilized: %v", units.RateOf(tot, 60*sim.Millisecond))
	}
	// With a competitor, FlexPass should ride mostly on its proactive
	// sub-flow (reactive finds little spare bandwidth).
	proShare := float64(fp.RxBytesPro) / float64(fp.RxBytes)
	if proShare < 0.5 {
		t.Fatalf("proactive share %.3f under competition, want >0.5", proShare)
	}
}

func TestTwoFlexPassFlowsShareFairly(t *testing.T) {
	// Fig 7(b): two FlexPass flows split the link evenly, mostly
	// proactively.
	eng, _, ag := flexFabric(3, 10*gig, topo.Spec{})
	f1 := fpFlow(1, ag[0], ag[2], 1<<30)
	f2 := fpFlow(2, ag[1], ag[2], 1<<30)
	Start(eng, f1, flexCfg(10*gig, 0.5))
	Start(eng, f2, flexCfg(10*gig, 0.5))
	eng.Run(60 * sim.Millisecond)
	tot := f1.RxBytes + f2.RxBytes
	share := float64(f1.RxBytes) / float64(tot)
	if share < 0.35 || share > 0.65 {
		t.Fatalf("flow 1 share %.3f, want ~0.5", share)
	}
	if units.RateOf(tot, 60*sim.Millisecond) < 7*gig {
		t.Fatalf("aggregate %v, want >7Gbps", units.RateOf(tot, 60*sim.Millisecond))
	}
}

func TestShortFlowUsesFirstRTT(t *testing.T) {
	// A 1-segment FlexPass flow completes in about one one-way delay via
	// the reactive sub-flow, where ExpressPass needs the credit-request
	// round trip first.
	eng, _, ag := flexFabric(2, 10*gig, topo.Spec{})
	fl := fpFlow(1, ag[0], ag[1], 1460)
	Start(eng, fl, flexCfg(10*gig, 0.5))
	eng.Run(5 * sim.Millisecond)
	if !fl.Completed {
		t.Fatal("flow did not complete")
	}
	// One-way: host delay 1us + 2 links × 2us + 2 serializations (~2.5us).
	if fl.FCT() > 12*sim.Microsecond {
		t.Fatalf("FCT %v, want first-RTT completion (<12us)", fl.FCT())
	}
}

func TestSelectiveDroppingBoundsFlexQueue(t *testing.T) {
	// Many FlexPass flows incast: the red threshold must bound Q1.
	eng, fab, ag := flexFabric(10, 10*gig, topo.Spec{})
	var flows []*transport.Flow
	id := uint64(1)
	for round := 0; round < 4; round++ {
		for s := 0; s < 9; s++ {
			fl := fpFlow(id, ag[s], ag[9], 256_000)
			flows = append(flows, fl)
			Start(eng, fl, flexCfg(10*gig, 0.5))
			id++
		}
	}
	eng.Run(300 * sim.Millisecond)
	for _, fl := range flows {
		if !fl.Completed {
			t.Fatal("incast flow did not complete")
		}
		if fl.Timeouts != 0 {
			t.Fatalf("flow %d hit %d recovery timeouts, want 0", fl.ID, fl.Timeouts)
		}
	}
	// The bottleneck is the switch egress to host 9 (port index 9). Red
	// occupancy is hard-capped at the 150kB threshold (+1 MTU of slack);
	// green (credit-paced proactive data + control) adds a transient on
	// top, keeping the total far below the 1.125MB dynamic-buffer bound.
	q1 := fab.Net.Switches[0].Ports()[9].QueueStats(1)
	if q1.MaxRed > 150_000+1538 {
		t.Fatalf("red occupancy peaked at %dB, above the 150kB threshold", q1.MaxRed)
	}
	if q1.MaxOccupancy > 500_000 {
		t.Fatalf("Q1 max occupancy %dB; selective dropping failed to bound the queue", q1.MaxOccupancy)
	}
	if q1.DroppedRed == 0 {
		t.Fatal("expected selective drops in a 36-way incast")
	}
}

func TestProactiveRetransmissionRecoversTailLoss(t *testing.T) {
	// Squeeze the reactive sub-flow hard (tiny red threshold) so its
	// packets drop; the proactive sub-flow must recover everything
	// without any recovery timeout.
	eng, _, ag := flexFabric(3, 10*gig, topo.Spec{FlexRed: 3 * units.KB})
	f1 := fpFlow(1, ag[0], ag[2], 2_000_000)
	f2 := fpFlow(2, ag[1], ag[2], 2_000_000)
	Start(eng, f1, flexCfg(10*gig, 0.5))
	Start(eng, f2, flexCfg(10*gig, 0.5))
	eng.Run(200 * sim.Millisecond)
	if !f1.Completed || !f2.Completed {
		t.Fatalf("completion: %v %v", f1.Completed, f2.Completed)
	}
	if f1.Timeouts+f2.Timeouts != 0 {
		t.Fatalf("timeouts = %d, want 0 (credit loop recovers losses)", f1.Timeouts+f2.Timeouts)
	}
	if f1.ProRetx+f2.ProRetx+f1.Retransmits+f2.Retransmits == 0 {
		t.Fatal("expected proactive recoveries with a 3kB red threshold")
	}
}

func TestReorderBufferZeroOnCleanPath(t *testing.T) {
	// §4.3: because both sub-flows share one switch queue and one path,
	// a loss-free FlexPass flow arrives in order — no reordering buffer.
	eng, _, ag := flexFabric(2, 10*gig, topo.Spec{})
	fl := fpFlow(1, ag[0], ag[1], 5_000_000)
	Start(eng, fl, flexCfg(10*gig, 0.5))
	eng.Run(50 * sim.Millisecond)
	if !fl.Completed {
		t.Fatal("flow did not complete")
	}
	if fl.MaxReorderB != 0 {
		t.Fatalf("reorder buffer %dB on a clean single-queue path, want 0", fl.MaxReorderB)
	}
}

func TestReorderBufferBoundedUnderLoss(t *testing.T) {
	// With reactive drops (reduced red threshold) holes appear and the
	// reorder buffer is used, but while the reactive window stays
	// functional the holes are repaired within a few RTTs and the buffer
	// stays far below the flow size.
	eng, _, ag := flexFabric(3, 10*gig, topo.Spec{FlexRed: 30 * units.KB})
	f1 := fpFlow(1, ag[0], ag[2], 5_000_000)
	f2 := fpFlow(2, ag[1], ag[2], 5_000_000)
	Start(eng, f1, flexCfg(10*gig, 0.5))
	Start(eng, f2, flexCfg(10*gig, 0.5))
	eng.Run(200 * sim.Millisecond)
	if !f1.Completed || !f2.Completed {
		t.Fatal("flows did not complete")
	}
	if f1.MaxReorderB == 0 && f2.MaxReorderB == 0 {
		t.Fatal("no reordering despite forced reactive losses")
	}
	for _, fl := range []*transport.Flow{f1, f2} {
		if fl.MaxReorderB > fl.Size/2 {
			t.Fatalf("reorder buffer %dB > half the flow", fl.MaxReorderB)
		}
	}
}

func TestRC3SplitCompletesAndReordersMore(t *testing.T) {
	run := func(rc3 bool) *transport.Flow {
		eng, _, ag := flexFabric(2, 10*gig, topo.Spec{})
		fl := fpFlow(1, ag[0], ag[1], 5_000_000)
		cfg := flexCfg(10*gig, 0.5)
		cfg.RC3Split = rc3
		Start(eng, fl, cfg)
		eng.Run(100 * sim.Millisecond)
		return fl
	}
	norm := run(false)
	rc3 := run(true)
	if !norm.Completed || !rc3.Completed {
		t.Fatalf("completion: norm=%v rc3=%v", norm.Completed, rc3.Completed)
	}
	// Fig 5(a): RC3-style splitting needs a much larger reordering buffer.
	if rc3.MaxReorderB <= norm.MaxReorderB {
		t.Fatalf("RC3 reorder buffer %d <= FlexPass %d; expected far larger",
			rc3.MaxReorderB, norm.MaxReorderB)
	}
}

func TestDuplicateDiscardKeepsCompletionExact(t *testing.T) {
	// Force heavy proactive retransmission by delaying reactive ACKs
	// (tiny red threshold drops reactive data); duplicates must be
	// discarded and the flow completed exactly once.
	eng, _, ag := flexFabric(2, 10*gig, topo.Spec{FlexRed: 2 * units.KB})
	fl := fpFlow(1, ag[0], ag[1], 1_000_000)
	completions := 0
	fl.OnComplete = func(*transport.Flow) { completions++ }
	Start(eng, fl, flexCfg(10*gig, 0.5))
	eng.Run(100 * sim.Millisecond)
	if completions != 1 {
		t.Fatalf("completions = %d, want exactly 1", completions)
	}
	if fl.RxBytes != fl.Size {
		t.Fatalf("RxBytes %d != size %d (duplicates double counted?)", fl.RxBytes, fl.Size)
	}
}

func TestCreditWasteUsedByReactive(t *testing.T) {
	// §4.3 credit waste mitigation: even when the pacer over-credits near
	// the tail, wasted credits are counted and the flow still completes
	// promptly.
	eng, _, ag := flexFabric(2, 10*gig, topo.Spec{})
	fl := fpFlow(1, ag[0], ag[1], 100_000)
	Start(eng, fl, flexCfg(10*gig, 0.5))
	eng.Run(20 * sim.Millisecond)
	if !fl.Completed {
		t.Fatal("flow did not complete")
	}
	if fl.CreditsGranted == 0 {
		t.Fatal("no credits granted; proactive sub-flow inactive")
	}
}

func TestRecoveryTimerRestartsAfterDeadStart(t *testing.T) {
	// The receiver starts late: the first reactive window and the
	// credit request all vanish. The recovery timer must restart the flow.
	eng, _, ag := flexFabric(2, 10*gig, topo.Spec{})
	fl := fpFlow(1, ag[0], ag[1], 100_000)
	cfg := flexCfg(10*gig, 0.5)
	cfg.MinRTO = 1 * sim.Millisecond
	fl.Src.Flows.Add(fl)
	s := NewSender(eng, fl, &cfg)
	r := NewReceiver(eng, fl, &cfg)
	fl.Sender = s
	eng.After(2500*sim.Microsecond, func() { fl.Receiver = r })
	s.Begin()
	eng.Run(100 * sim.Millisecond)
	if !fl.Completed {
		t.Fatal("flow did not recover from total first-window loss")
	}
	if fl.Timeouts == 0 {
		t.Fatal("recovery timer should have fired")
	}
}

// arrays maps every array on l to its capacity, by its first element.
func (l *recordArrays) arrays() map[*txRecord]int {
	out := map[*txRecord]int{}
	for _, stack := range l.free {
		for _, rs := range stack {
			out[&rs[:1][0]] = cap(rs)
		}
	}
	return out
}

// TestRecordArraysReused runs two identical flows one after the other on
// one config: the first grows its records through the config's free list
// and gives every array back when it finishes, and the second takes all
// of its records from those arrays, allocating none. The finished first
// sender then gets duplicate credits and ACKs, which must neither panic,
// move its counters, nor hand its arrays back a second time.
func TestRecordArraysReused(t *testing.T) {
	eng, _, ag := flexFabric(2, 10*gig, topo.Spec{})
	cfg := flexCfg(10*gig, 0.5)
	run := func(id uint64) (*transport.Flow, *Sender) {
		fl := fpFlow(id, ag[0], ag[1], 1_000_000)
		fl.Start = eng.Now()
		fl.Src.Flows.Add(fl)
		cfg.StartReceiver(eng, fl)
		cfg.StartSender(eng, fl)
		s := fl.Sender.(*Sender)
		for !fl.Completed {
			eng.Run(eng.Now() + sim.Millisecond)
		}
		return fl, s
	}
	first, s := run(1)
	if s.re != nil || s.pro != nil {
		t.Fatalf("finished sender still holds %d + %d records", cap(s.re), cap(s.pro))
	}
	after := cfg.records.arrays()
	if len(after) < 2 {
		t.Fatalf("free list holds %d arrays after a 1 MB flow, want its sub-flows' arrays", len(after))
	}
	if _, s2 := run(2); s2.re != nil || s2.pro != nil {
		t.Fatal("second sender kept its records after finishing")
	}
	if again := cfg.records.arrays(); !maps.Equal(again, after) {
		t.Fatalf("free list after the second flow %v, want the first flow's arrays %v: records came from the heap", again, after)
	}

	before := *first
	for _, pkt := range []netem.Packet{
		{Kind: netem.KindCredit, SubSeq: 3},
		{Kind: netem.KindAckRe, Seq: 1, SubSeq: 2},
		{Kind: netem.KindAckRe, Seq: 0, SubSeq: 0},
		{Kind: netem.KindAckPro, Seq: 1, SubSeq: 2},
		{Kind: netem.KindAckPro, Seq: 5, SubSeq: 1},
	} {
		pkt.Flow, pkt.SentAt = first.ID, eng.Now()
		s.Handle(&pkt)
	}
	eng.Run(eng.Now() + 20*sim.Millisecond) // past any recovery deadline
	if first.CreditsGranted != before.CreditsGranted || first.CreditsWasted != before.CreditsWasted ||
		first.Retransmits != before.Retransmits || first.ProRetx != before.ProRetx ||
		first.Timeouts != before.Timeouts || first.RxBytes != before.RxBytes {
		t.Fatalf("finished flow's counters moved: %+v, then %+v", before, *first)
	}
	if again := cfg.records.arrays(); !maps.Equal(again, after) {
		t.Fatalf("duplicates after finishing changed the free list: %v, want %v", again, after)
	}
}
