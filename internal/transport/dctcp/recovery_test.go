package dctcp

import (
	"testing"

	"flexpass/internal/sim"
	"flexpass/internal/topo"
	"flexpass/internal/transport"
	"flexpass/internal/units"
)

// lossyLink builds a 2-host fabric with random loss toward the receiver.
func lossyLink(rate float64, seed int64) (*sim.Engine, []*transport.Agent) {
	eng := sim.NewEngine(seed)
	f := topo.SingleSwitch(eng, 2, topo.Params{
		LinkRate:  10 * units.Gbps,
		LinkDelay: 2 * sim.Microsecond,
		HostDelay: 1 * sim.Microsecond,
		SwitchBuf: 4500 * units.KB,
		BufAlpha:  0.25,
		Profile:   topo.PlainProfile(100 * units.KB),
	})
	f.Net.Switches[0].Ports()[1].SetLossRate(rate)
	table := new(transport.Flows)
	return eng, []*transport.Agent{
		transport.NewAgent(eng, f.Net.Host(0), table),
		transport.NewAgent(eng, f.Net.Host(1), table),
	}
}

func TestSACKRecoveryAvoidsRTOUnderModerateLoss(t *testing.T) {
	// With continuous traffic and 0.5% loss, SACK-style marking should
	// recover nearly everything without timeouts.
	eng, ag := lossyLink(0.005, 5)
	f := newFlow(1, ag[0], ag[1], 10_000_000, 0)
	Start(eng, f, LegacyConfig())
	eng.Run(2 * sim.Second)
	if !f.Completed {
		t.Fatal("flow did not complete")
	}
	if f.Retransmits == 0 {
		t.Fatal("no retransmissions despite loss")
	}
	if f.Timeouts > 2 {
		t.Fatalf("timeouts = %d; fast recovery should handle 0.5%% loss", f.Timeouts)
	}
}

func TestRTOBackoffUnderBlackout(t *testing.T) {
	// 100% loss: the sender must back off exponentially, not fire RTOs at
	// a fixed 4ms cadence.
	eng, ag := lossyLink(1.0, 5)
	f := newFlow(1, ag[0], ag[1], 100_000, 0)
	Start(eng, f, LegacyConfig())
	eng.Run(200 * sim.Millisecond)
	if f.Completed {
		t.Fatal("flow cannot complete over a dead link")
	}
	// Fixed 4ms RTOs would fire ~50 times in 200ms; exponential backoff
	// (4, 8, 16, 32, 64, 128...) allows at most ~6.
	if f.Timeouts > 8 {
		t.Fatalf("timeouts = %d in 200ms; backoff missing", f.Timeouts)
	}
	if f.Timeouts < 3 {
		t.Fatalf("timeouts = %d; RTO not firing at all", f.Timeouts)
	}
}

func TestTailLossRecoveredByRTO(t *testing.T) {
	// Lose everything after 10ms: the in-flight tail must be recovered by
	// RTO once the link heals.
	eng := sim.NewEngine(5)
	fb := topo.SingleSwitch(eng, 2, topo.Params{
		LinkRate:  10 * units.Gbps,
		LinkDelay: 2 * sim.Microsecond,
		HostDelay: 1 * sim.Microsecond,
		SwitchBuf: 4500 * units.KB,
		BufAlpha:  0.25,
		Profile:   topo.PlainProfile(100 * units.KB),
	})
	port := fb.Net.Switches[0].Ports()[1]
	table := new(transport.Flows)
	ag := []*transport.Agent{
		transport.NewAgent(eng, fb.Net.Host(0), table),
		transport.NewAgent(eng, fb.Net.Host(1), table),
	}
	f := newFlow(1, ag[0], ag[1], 100_000_000, 0)
	Start(eng, f, LegacyConfig())
	eng.At(10*sim.Millisecond, func() { port.SetLossRate(1.0) })
	eng.At(30*sim.Millisecond, func() { port.SetLossRate(0) })
	eng.Run(2 * sim.Second)
	if !f.Completed {
		t.Fatal("flow did not recover after the blackout healed")
	}
	if f.Timeouts == 0 {
		t.Fatal("a 20ms blackout must cause at least one RTO")
	}
}

func TestConcurrentMixedSizesAllComplete(t *testing.T) {
	eng, ag := lossyLink(0.002, 9)
	sizes := []int64{800, 14_600, 146_000, 1_460_000, 7_300_000}
	var flows []*transport.Flow
	for i, sz := range sizes {
		fl := newFlow(uint64(i+1), ag[0], ag[1], sz, 0)
		flows = append(flows, fl)
		Start(eng, fl, LegacyConfig())
	}
	eng.Run(3 * sim.Second)
	for i, fl := range flows {
		if !fl.Completed {
			t.Fatalf("flow %d (size %d) incomplete", i, sizes[i])
		}
		if fl.RxBytes != sizes[i] {
			t.Fatalf("flow %d delivered %d of %d bytes", i, fl.RxBytes, sizes[i])
		}
	}
}

// TestNilTraceTimeoutAllocatesNothing holds an RTO with tracing off to
// zero heap objects: the window-cut note is formatted only on a ring, so
// a nil one boxes no cwnd. The link toward the receiver loses everything,
// so each Expire resends into frames the fabric recycles.
func TestNilTraceTimeoutAllocatesNothing(t *testing.T) {
	eng, ag := lossyLink(1, 5)
	s, _ := Start(eng, newFlow(1, ag[0], ag[1], 100_000, 0), LegacyConfig())
	timeout := func() {
		s.Expire()
		eng.Run(eng.Now() + 100*sim.Microsecond)
	}
	for i := 0; i < 16; i++ {
		timeout() // warm the free lists
	}
	if a := testing.AllocsPerRun(100, timeout); a != 0 {
		t.Fatalf("a timeout with no trace ring allocates %.1f objects, want 0", a)
	}
}
