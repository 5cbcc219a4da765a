package phost

import (
	"testing"

	"flexpass/internal/netem"
	"flexpass/internal/sim"
	"flexpass/internal/transport"
	"flexpass/internal/transport/core"
	"flexpass/internal/transport/dctcp"
	"flexpass/internal/transport/flexpass"
	"flexpass/internal/units"
)

// flexOverPHost wires a FlexPass flow whose proactive sub-flow is driven
// by pHost token arbitration instead of the ExpressPass pacer.
func flexOverPHost(eng *sim.Engine, fl *transport.Flow, arb *Arbiter, rate units.Rate) {
	cfg := flexpass.DefaultConfig(core.DefaultPacerConfig(netem.CreditRateFor(rate, 0.5)))
	tokens := DefaultConfig()
	cfg.NewCreditSource = func(e *sim.Engine, f *transport.Flow) flexpass.CreditSource {
		return NewFlexSource(e, arb, f, &tokens)
	}
	fl.Src.Flows.Add(fl)
	flexpass.StartReceiver(eng, fl, &cfg)
	flexpass.StartSender(eng, fl, &cfg)
}

func TestFlexPassOverPHostCompletes(t *testing.T) {
	eng, _, ag, arbs := fabric(2)
	fl := &transport.Flow{ID: 1, Src: ag[0], Dst: ag[1], Size: 5_000_000, Transport: "flexpass+phost"}
	flexOverPHost(eng, fl, arbs[1], 10*gig)
	eng.Run(100 * sim.Millisecond)
	if !fl.Completed {
		t.Fatal("flow did not complete")
	}
	if fl.Timeouts != 0 {
		t.Fatalf("timeouts = %d", fl.Timeouts)
	}
	// Both sub-flows must contribute: tokens through the w_q-limited Q0
	// cap the proactive half, the reactive half grabs the rest.
	if fl.RxBytesPro == 0 || fl.RxBytesRe == 0 {
		t.Fatalf("sub-flow split pro=%d re=%d; both must be active", fl.RxBytesPro, fl.RxBytesRe)
	}
	rate := units.RateOf(fl.RxBytes, fl.FCT())
	if rate < 7*gig {
		t.Fatalf("goodput %v, want near line rate", rate)
	}
}

func TestFlexPassOverPHostCoexistsWithDCTCP(t *testing.T) {
	// The co-existence guarantee must survive the allocator swap: the
	// credit-queue rate limiter, not the allocator's own feedback, is
	// what bounds the proactive sub-flow.
	eng, _, ag, arbs := fabric(3)
	fp := &transport.Flow{ID: 1, Src: ag[0], Dst: ag[2], Size: 1 << 30, Transport: "flexpass+phost"}
	dc := &transport.Flow{ID: 2, Src: ag[1], Dst: ag[2], Size: 1 << 30, Transport: "dctcp", Legacy: true}
	flexOverPHost(eng, fp, arbs[2], 10*gig)
	legacy := dctcp.LegacyConfig()
	dc.Src.Flows.Add(dc)
	dctcp.StartReceiver(eng, dc, &legacy)
	dctcp.StartSender(eng, dc, &legacy)
	eng.Run(60 * sim.Millisecond)
	tot := fp.RxBytes + dc.RxBytes
	dcShare := float64(dc.RxBytes) / float64(tot)
	if dcShare < 0.35 || dcShare > 0.65 {
		t.Fatalf("DCTCP share %.3f under FlexPass-over-pHost, want ~0.5", dcShare)
	}
}

func TestFlexPassOverPHostFirstRTT(t *testing.T) {
	eng, _, ag, arbs := fabric(2)
	fl := &transport.Flow{ID: 1, Src: ag[0], Dst: ag[1], Size: 1460, Transport: "flexpass+phost"}
	flexOverPHost(eng, fl, arbs[1], 10*gig)
	eng.Run(10 * sim.Millisecond)
	if !fl.Completed {
		t.Fatal("flow did not complete")
	}
	if fl.FCT() > 12*sim.Microsecond {
		t.Fatalf("FCT %v; the reactive first RTT must still apply", fl.FCT())
	}
}
