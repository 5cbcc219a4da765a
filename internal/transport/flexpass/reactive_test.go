package flexpass

import (
	"testing"

	"flexpass/internal/sim"
	"flexpass/internal/topo"
	"flexpass/internal/transport"
	"flexpass/internal/transport/dctcp"
	"flexpass/internal/units"
)

func TestRenoReactiveFillsLinkAlone(t *testing.T) {
	eng, _, ag := flexFabric(2, 10*gig, topo.Spec{})
	cfg := flexCfg(10*gig, 0.5)
	cfg.Reactive = ReactiveReno
	fl := fpFlow(1, ag[0], ag[1], 1<<30)
	Start(eng, fl, cfg)
	eng.Run(40 * sim.Millisecond)
	total := units.RateOf(fl.RxBytes, 40*sim.Millisecond)
	if total < 8*gig {
		t.Fatalf("goodput %v with Reno reactive, want >8Gbps", total)
	}
	// Loss-based reactive rides the red-drop signal: with the whole
	// spare half available, it must still contribute substantially.
	if float64(fl.RxBytesRe)/float64(fl.RxBytes) < 0.3 {
		t.Fatalf("reactive share %.2f with Reno, want >0.3",
			float64(fl.RxBytesRe)/float64(fl.RxBytes))
	}
}

func TestRenoReactiveStillYieldsToLegacy(t *testing.T) {
	// The co-existence property must not depend on the reactive
	// algorithm: with Reno, selective dropping is the only brake, and it
	// must suffice.
	eng, _, ag := flexFabric(3, 10*gig, topo.Spec{})
	cfg := flexCfg(10*gig, 0.5)
	cfg.Reactive = ReactiveReno
	fp := fpFlow(1, ag[0], ag[2], 1<<30)
	dc := &transport.Flow{ID: 2, Src: ag[1], Dst: ag[2], Size: 1 << 30, Transport: "dctcp", Legacy: true}
	Start(eng, fp, cfg)
	legacy := dctcp.LegacyConfig()
	dc.Src.Flows.Add(dc)
	legacy.StartReceiver(eng, dc)
	legacy.StartSender(eng, dc)
	eng.Run(60 * sim.Millisecond)
	tot := fp.RxBytes + dc.RxBytes
	dcShare := float64(dc.RxBytes) / float64(tot)
	if dcShare < 0.35 || dcShare > 0.65 {
		t.Fatalf("DCTCP share %.3f with Reno reactive, want ~0.5", dcShare)
	}
}

func TestRenoWindowUnit(t *testing.T) {
	w := &renoWindow{cwnd: 10, ssthresh: 1 << 30}
	// Slow start: +1 per ack.
	w.OnAck(0, 10, false)
	if w.Cwnd() != 11 {
		t.Fatalf("cwnd = %v", w.Cwnd())
	}
	// CE marks must be ignored.
	w.OnAck(1, 12, true)
	if w.Cwnd() != 12 {
		t.Fatalf("cwnd after CE = %v; Reno must ignore marks", w.Cwnd())
	}
	// Loss halves once per window.
	w.OnLoss(2, 20)
	if w.Cwnd() != 6 {
		t.Fatalf("cwnd after loss = %v, want 6", w.Cwnd())
	}
	w.OnLoss(3, 25) // same window: no second cut
	if w.Cwnd() != 6 {
		t.Fatalf("cwnd after same-window loss = %v, want 6", w.Cwnd())
	}
	w.OnTimeout()
	if w.Cwnd() != 1 || w.ssthresh != 3 {
		t.Fatalf("after timeout cwnd=%v ssthresh=%v", w.Cwnd(), w.ssthresh)
	}
}

func TestUnknownReactiveAlgoPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown algorithm")
		}
	}()
	s := &Sender{cfg: &Config{Reactive: "cubic-xyz", InitCwnd: 10}}
	s.initReactiveWindow()
}
