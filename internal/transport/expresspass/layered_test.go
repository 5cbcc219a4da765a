package expresspass

import (
	"testing"

	"flexpass/internal/sim"
	"flexpass/internal/transport/core"
	"flexpass/internal/units"
)

func TestLayeredWindowGatesCredits(t *testing.T) {
	// A layered sender with a saturated window must waste credits rather
	// than transmit: the defining LY behaviour (and the reason LY
	// underutilizes when there is no competing traffic — §6.2).
	eng, _, ag := naiveFabric(2, 10*gig)
	fl := xpFlow(1, ag[0], ag[1], 50_000_000)
	cfg := DefaultConfig(core.DefaultPacerConfig(fullCreditRate(10 * gig)))
	cfg.Layered = true
	cfg.DataECN = true
	s, _ := Start(eng, fl, cfg)
	eng.Run(20 * sim.Millisecond)
	if fl.CreditsWasted == 0 {
		t.Fatal("layered sender never gated a credit; window limit inactive")
	}
	// Gating costs throughput only when the window is the binding
	// constraint; alone on the link the window should grow and goodput
	// approach line rate eventually.
	if fl.RxBytes == 0 {
		t.Fatal("no progress")
	}
	_ = s
}

func TestLayeredBeatsNothingButStillCompletes(t *testing.T) {
	eng, _, ag := naiveFabric(2, 10*gig)
	fl := xpFlow(1, ag[0], ag[1], 3_000_000)
	cfg := DefaultConfig(core.DefaultPacerConfig(fullCreditRate(10 * gig)))
	cfg.Layered = true
	cfg.DataECN = true
	Start(eng, fl, cfg)
	eng.Run(100 * sim.Millisecond)
	if !fl.Completed {
		t.Fatal("layered flow did not complete")
	}
	if fl.Timeouts != 0 {
		t.Fatalf("timeouts = %d", fl.Timeouts)
	}
	if units.RateOf(fl.RxBytes, fl.FCT()) < 1*gig {
		t.Fatalf("layered goodput pathologically low: %v", units.RateOf(fl.RxBytes, fl.FCT()))
	}
}
