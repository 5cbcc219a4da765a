package flexpass

import (
	"testing"

	"flexpass/internal/sim"
	"flexpass/internal/topo"
	"flexpass/internal/trace"
	"flexpass/internal/units"
)

func TestTraceRecordsProactiveRetransmissions(t *testing.T) {
	eng, _, ag := lossyPair(0.03, topo.Spec{})
	ring := trace.NewRing(eng, 1024)
	cfg := flexCfg(10*gig, 0.5)
	cfg.Trace = ring
	fl := fpFlow(1, ag[0], ag[1], 2_000_000)
	Start(eng, fl, cfg)
	eng.Run(sim.Second)
	if !fl.Completed {
		t.Fatal("flow did not complete")
	}
	retx := ring.Filter(func(e trace.Event) bool { return e.Kind == trace.Retransmit })
	if fl.ProRetx > 0 && len(retx) == 0 {
		t.Fatal("proactive retransmissions happened but were not traced")
	}
	if len(retx) != fl.ProRetx {
		t.Fatalf("traced %d retx events, counter says %d", len(retx), fl.ProRetx)
	}
	for _, e := range retx {
		if e.Flow != 1 {
			t.Fatalf("trace event for wrong flow: %+v", e)
		}
	}
}

func TestTraceNilIsFree(t *testing.T) {
	// Default config has no ring; the flow must behave identically.
	eng, _, ag := lossyPair(0.03, topo.Spec{})
	fl := fpFlow(1, ag[0], ag[1], 500_000)
	Start(eng, fl, flexCfg(10*gig, 0.5))
	eng.Run(sim.Second)
	if !fl.Completed {
		t.Fatal("flow did not complete without a trace ring")
	}
	_ = units.KB
}

// TestNilTraceTimeoutAllocatesNothing holds a timeout with tracing off to
// zero heap objects: the window-cut note is formatted only on a ring, so
// a nil one boxes no cwnd. The link toward the receiver loses everything,
// so each Expire resends into frames the fabric recycles.
func TestNilTraceTimeoutAllocatesNothing(t *testing.T) {
	eng, _, ag := lossyPair(1, topo.Spec{})
	fl := fpFlow(1, ag[0], ag[1], 100_000)
	s, _ := Start(eng, fl, flexCfg(10*gig, 0.5))
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
