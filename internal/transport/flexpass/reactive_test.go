package flexpass

import (
	"testing"

	"flexpass/internal/netem"
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

// TestRenoReactiveIsNotECT: Reno means non-ECT reactive data. Two flows
// into one host hold its Q1 above the ECN threshold; the DCTCP default's
// reactive data is marked there, Reno's never is (nor is proactive data,
// which no scheme sends ECN-capable).
func TestRenoReactiveIsNotECT(t *testing.T) {
	for _, tc := range []struct {
		algo   ReactiveCC
		marked bool
	}{{"", true}, {ReactiveReno, false}} {
		eng, fab, ag := flexFabric(3, 10*gig, topo.Spec{})
		cfg := flexCfg(10*gig, 0.5)
		cfg.Reactive = tc.algo
		Start(eng, fpFlow(1, ag[0], ag[2], 1<<30), cfg)
		Start(eng, fpFlow(2, ag[1], ag[2], 1<<30), cfg)
		eng.Run(10 * sim.Millisecond)
		q1 := fab.Net.Switches[0].Ports()[2].QueueStats(int(netem.ClassFlex))
		if q1.MaxOccupancy <= int64(topo.Spec{}.Defaults().FlexECN) {
			t.Fatalf("reactive %q: Q1 peaked at %d B, never above its ECN threshold", tc.algo, q1.MaxOccupancy)
		}
		if got := q1.Marked > 0; got != tc.marked {
			t.Errorf("reactive %q: Q1 marked %d packets, want marks %v", tc.algo, q1.Marked, tc.marked)
		}
	}
}

// TestUnknownReactiveAlgoPanics: a reactive name outside the table fails
// where the sender is built.
func TestUnknownReactiveAlgoPanics(t *testing.T) {
	eng, _, ag := flexFabric(2, 10*gig, topo.Spec{})
	cfg := flexCfg(10*gig, 0.5)
	cfg.Reactive = "cubic-xyz"
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown algorithm")
		}
	}()
	NewSender(eng, fpFlow(1, ag[0], ag[1], 100_000), &cfg)
}
