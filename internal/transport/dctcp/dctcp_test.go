package dctcp

import (
	"testing"

	"flexpass/internal/sim"
	"flexpass/internal/topo"
	"flexpass/internal/transport"
	"flexpass/internal/units"
)

// Start begins both halves of a DCTCP flow on one engine: StartReceiver,
// then StartSender, which transmits immediately.
func Start(eng *sim.Engine, flow *transport.Flow, cfg Config) (*Sender, *Receiver) {
	flow.Src.Flows.Add(flow)
	cfg.StartReceiver(eng, flow)
	cfg.StartSender(eng, flow)
	return flow.Sender.(*Sender), flow.Receiver.(*Receiver)
}

func testFabric(t *testing.T, hosts int) (*sim.Engine, *topo.Fabric, []*transport.Agent) {
	t.Helper()
	eng := sim.NewEngine(1)
	f := topo.SingleSwitch(eng, hosts, topo.Params{
		LinkRate:  10 * units.Gbps,
		LinkDelay: 2 * sim.Microsecond,
		HostDelay: 1 * sim.Microsecond,
		SwitchBuf: 4500 * units.KB,
		BufAlpha:  0.25,
		Profile:   topo.PlainProfile(100 * units.KB),
	})
	agents := make([]*transport.Agent, hosts)
	table := new(transport.Flows)
	for i := range agents {
		agents[i] = transport.NewAgent(eng, f.Net.Host(i), table)
	}
	return eng, f, agents
}

func newFlow(id uint64, src, dst *transport.Agent, size int64, start sim.Time) *transport.Flow {
	return &transport.Flow{
		ID: id, Src: src, Dst: dst, Size: size, Start: start,
		Transport: "dctcp", Legacy: true,
	}
}

func TestSingleFlowCompletes(t *testing.T) {
	eng, _, ag := testFabric(t, 2)
	f := newFlow(1, ag[0], ag[1], 1_000_000, 0)
	Start(eng, f, LegacyConfig())
	eng.Run(100 * sim.Millisecond)
	if !f.Completed {
		t.Fatal("flow did not complete")
	}
	// 1MB at 10Gbps is 0.8ms minimum; slow start adds a few RTTs.
	if f.FCT() < 800*sim.Microsecond {
		t.Fatalf("FCT %v impossibly fast", f.FCT())
	}
	if f.FCT() > 5*sim.Millisecond {
		t.Fatalf("FCT %v too slow (no slow-start growth?)", f.FCT())
	}
	if f.Timeouts != 0 {
		t.Fatalf("timeouts = %d, want 0", f.Timeouts)
	}
}

func TestTinyFlowOneSegment(t *testing.T) {
	eng, _, ag := testFabric(t, 2)
	f := newFlow(1, ag[0], ag[1], 100, 0)
	Start(eng, f, LegacyConfig())
	eng.Run(10 * sim.Millisecond)
	if !f.Completed {
		t.Fatal("1-segment flow did not complete")
	}
	if f.RxBytes != 100 {
		t.Fatalf("RxBytes = %d, want 100", f.RxBytes)
	}
}

func TestLongFlowSaturatesLink(t *testing.T) {
	eng, _, ag := testFabric(t, 2)
	f := newFlow(1, ag[0], ag[1], 50_000_000, 0)
	Start(eng, f, LegacyConfig())
	eng.Run(100 * sim.Millisecond)
	// 50MB at 10Gbps goodput limit ≈ 42.2ms wire time (with header
	// overhead ≈ 44.4ms); DCTCP should stay close to line rate.
	if !f.Completed {
		t.Fatal("flow did not complete")
	}
	rate := units.RateOf(f.RxBytes, f.FCT())
	if rate < 8*units.Gbps {
		t.Fatalf("goodput %v over FCT %v, want >8Gbps", rate, f.FCT())
	}
}

func TestTwoFlowsShareFairly(t *testing.T) {
	eng, _, ag := testFabric(t, 3)
	f1 := newFlow(1, ag[0], ag[2], 1<<30, 0)
	f2 := newFlow(2, ag[1], ag[2], 1<<30, 0)
	Start(eng, f1, LegacyConfig())
	Start(eng, f2, LegacyConfig())
	eng.Run(50 * sim.Millisecond)
	tot := f1.RxBytes + f2.RxBytes
	if tot == 0 {
		t.Fatal("no progress")
	}
	share := float64(f1.RxBytes) / float64(tot)
	if share < 0.35 || share > 0.65 {
		t.Fatalf("flow 1 share = %.3f, want ~0.5", share)
	}
	// Aggregate should be near line rate.
	rate := units.RateOf(tot, 50*sim.Millisecond)
	if rate < 8*units.Gbps {
		t.Fatalf("aggregate %v, want >8Gbps", rate)
	}
}

func TestECNBoundsQueue(t *testing.T) {
	eng, fab, ag := testFabric(t, 3)
	f1 := newFlow(1, ag[0], ag[2], 1<<30, 0)
	f2 := newFlow(2, ag[1], ag[2], 1<<30, 0)
	Start(eng, f1, LegacyConfig())
	Start(eng, f2, LegacyConfig())
	eng.Run(50 * sim.Millisecond)
	// Egress port toward host 2 is the bottleneck; DCTCP with K=100kB
	// should keep the queue well below the 1.125MB dynamic-threshold cap.
	var bottleneck = fab.Net.Switches[0].Ports()[2]
	st := bottleneck.QueueStats(0)
	if st.Marked == 0 {
		t.Fatal("no CE marks at the bottleneck")
	}
	if st.MaxOccupancy > 400_000 {
		t.Fatalf("max queue %dB; ECN failed to bound it", st.MaxOccupancy)
	}
	if st.Dropped != 0 {
		t.Fatalf("drops = %d, want 0 with ECN control", st.Dropped)
	}
}

func TestLossRecoveryWithTinyBuffer(t *testing.T) {
	eng := sim.NewEngine(1)
	f := topo.SingleSwitch(eng, 3, topo.Params{
		LinkRate:  10 * units.Gbps,
		LinkDelay: 2 * sim.Microsecond,
		HostDelay: 1 * sim.Microsecond,
		SwitchBuf: 30 * units.KB, // tiny: forces drops
		BufAlpha:  1.0,
		Profile:   topo.PlainProfile(0), // no ECN: loss-driven
	})
	table := new(transport.Flows)
	ag := []*transport.Agent{
		transport.NewAgent(eng, f.Net.Host(0), table),
		transport.NewAgent(eng, f.Net.Host(1), table),
		transport.NewAgent(eng, f.Net.Host(2), table),
	}
	fl1 := newFlow(1, ag[0], ag[2], 3_000_000, 0)
	fl2 := newFlow(2, ag[1], ag[2], 3_000_000, 0)
	s1, _ := Start(eng, fl1, LegacyConfig())
	Start(eng, fl2, LegacyConfig())
	eng.Run(200 * sim.Millisecond)
	if !fl1.Completed || !fl2.Completed {
		t.Fatalf("flows not complete: %v %v", fl1.Completed, fl2.Completed)
	}
	if fl1.Retransmits+fl2.Retransmits == 0 {
		t.Fatal("expected retransmissions with a 30kB buffer")
	}
	_ = s1
}

func TestIncastCausesTimeoutsAtHighDegree(t *testing.T) {
	// Paper Fig 8: kernel DCTCP suffers timeouts past ~48 incast flows.
	eng, _, ag := testFabric(t, 10)
	// Reduce buffer pressure tolerance: 9 senders × many flows at once.
	var flows []*transport.Flow
	id := uint64(1)
	for round := 0; round < 8; round++ { // 72 concurrent flows
		for s := 0; s < 9; s++ {
			fl := newFlow(id, ag[s], ag[9], 64_000, 0)
			flows = append(flows, fl)
			Start(eng, fl, LegacyConfig())
			id++
		}
	}
	eng.Run(400 * sim.Millisecond)
	timeouts := 0
	for _, fl := range flows {
		if !fl.Completed {
			t.Fatal("incast flow did not complete")
		}
		timeouts += fl.Timeouts
	}
	if timeouts == 0 {
		t.Fatal("expected at least one RTO in a 72-way incast")
	}
}

func TestWindowAlphaConvergesToMarkFraction(t *testing.T) {
	w := NewWindow(10)
	// Feed 50 windows with 30% marks; alpha should approach 0.3.
	seq := 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 100; i++ {
			ce := i%10 < 3
			w.OnAck(seq, seq+100, ce)
			seq++
		}
	}
	if w.Alpha < 0.2 || w.Alpha > 0.4 {
		t.Fatalf("alpha = %.3f, want ~0.3", w.Alpha)
	}
}

func TestWindowSingleReductionPerWindow(t *testing.T) {
	w := NewWindow(100)
	w.Ssthresh = 1 // force congestion avoidance
	w.Alpha = 1
	before := w.Cwnd
	// Many CE acks within one window: only one halving.
	for i := 0; i < 50; i++ {
		w.OnAck(0, 100, true)
	}
	if w.Cwnd < before/2-1 {
		t.Fatalf("cwnd = %.1f; reduced more than once per window", w.Cwnd)
	}
}

func TestWindowTimeoutCollapses(t *testing.T) {
	w := NewWindow(64)
	w.OnTimeout()
	if w.Cwnd != 1 {
		t.Fatalf("cwnd after RTO = %.1f, want 1", w.Cwnd)
	}
	if w.Ssthresh != 32 {
		t.Fatalf("ssthresh after RTO = %.1f, want 32", w.Ssthresh)
	}
}

func TestWindowSlowStartDoubles(t *testing.T) {
	w := NewWindow(2)
	seq := 0
	// One RTT: 2 acks -> cwnd 4; next RTT: 4 acks -> 8.
	for i := 0; i < 2; i++ {
		w.OnAck(seq, seq+2, false)
		seq++
	}
	if w.Cwnd != 4 {
		t.Fatalf("cwnd = %.1f after first RTT, want 4", w.Cwnd)
	}
}

// TestWindowLossCutsOncePerWindow: without CE — FlexPass's Reno reactive
// sub-flow, whose data is never marked — the window grows by one per ACK
// in slow start, halves on a loss at most once per window, and an RTO
// collapses it to one segment with ssthresh floored at 2.
func TestWindowLossCutsOncePerWindow(t *testing.T) {
	w := NewWindow(InitCwnd)
	w.OnAck(0, 10, false)
	if w.Cwnd != 11 {
		t.Fatalf("cwnd = %v after one ACK in slow start, want 11", w.Cwnd)
	}
	w.Cwnd = 12
	w.OnLoss(2, 20)
	if w.Cwnd != 6 || w.Ssthresh != 6 {
		t.Fatalf("after loss cwnd=%v ssthresh=%v, want 6 6", w.Cwnd, w.Ssthresh)
	}
	w.OnLoss(3, 25) // same window: no second cut
	if w.Cwnd != 6 {
		t.Fatalf("cwnd after a same-window loss = %v, want 6", w.Cwnd)
	}
	w.OnTimeout()
	if w.Cwnd != 1 || w.Ssthresh != 3 {
		t.Fatalf("after timeout cwnd=%v ssthresh=%v, want 1 3", w.Cwnd, w.Ssthresh)
	}
	w.OnTimeout()
	if w.Cwnd != 1 || w.Ssthresh != 2 {
		t.Fatalf("after a second timeout cwnd=%v ssthresh=%v, want 1 2", w.Cwnd, w.Ssthresh)
	}
}
