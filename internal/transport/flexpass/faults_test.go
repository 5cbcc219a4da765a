package flexpass

import (
	"testing"

	"flexpass/internal/sim"
	"flexpass/internal/topo"
	"flexpass/internal/transport"
	"flexpass/internal/transport/dctcp"
	"flexpass/internal/units"
)

// lossyPair builds a 2-host fabric and injects random loss on the switch
// egress toward the receiver (data direction) — non-congestion losses per
// §4.3 (switch failures), hitting proactive data, reactive data, and
// requests alike.
func lossyPair(rate float64, spec topo.Spec) (*sim.Engine, *topo.Fabric, []*transport.Agent) {
	eng := sim.NewEngine(3)
	f := topo.SingleSwitch(eng, 2, topo.Params{
		LinkRate:  10 * gig,
		LinkDelay: 2 * sim.Microsecond,
		HostDelay: 1 * sim.Microsecond,
		SwitchBuf: 4500 * units.KB,
		BufAlpha:  0.25,
		Profile:   topo.FlexPassProfile(spec),
	})
	f.Net.Switches[0].Ports()[1].SetLossRate(rate)
	table := new(transport.Flows)
	ag := []*transport.Agent{
		transport.NewAgent(eng, f.Net.Host(0), table),
		transport.NewAgent(eng, f.Net.Host(1), table),
	}
	return eng, f, ag
}

func TestFlexPassSurvivesRandomLoss(t *testing.T) {
	eng, fab, ag := lossyPair(0.01, topo.Spec{})
	fl := fpFlow(1, ag[0], ag[1], 5_000_000)
	Start(eng, fl, flexCfg(10*gig, 0.5))
	eng.Run(500 * sim.Millisecond)
	if !fl.Completed {
		t.Fatal("flow did not complete under 1% random loss")
	}
	if fab.Net.Switches[0].Ports()[1].FaultStats().Injected == 0 {
		t.Fatal("no faults injected; test misconfigured")
	}
	if fl.Retransmits == 0 {
		t.Fatal("losses must force retransmissions")
	}
	// The credit loop recovers without RTO-scale stalls: a 5MB flow at
	// ~9.5Gbps is ~4.2ms; allow generous slack but nowhere near RTO
	// pile-ups.
	if fl.FCT() > 40*sim.Millisecond {
		t.Fatalf("FCT %v under 1%% loss; recovery too slow", fl.FCT())
	}
}

func TestFlexPassSurvivesHeavyLossBothDirections(t *testing.T) {
	eng, fab, ag := lossyPair(0.05, topo.Spec{})
	// Also lose ACKs and credits on the reverse direction (the receiver's
	// NIC egress).
	fab.Net.Hosts[1].NIC().SetLossRate(0.05)
	fl := fpFlow(1, ag[0], ag[1], 1_000_000)
	Start(eng, fl, flexCfg(10*gig, 0.5))
	eng.Run(2 * sim.Second)
	if !fl.Completed {
		t.Fatal("flow did not complete under 5% bidirectional loss")
	}
}

func TestDCTCPSurvivesRandomLoss(t *testing.T) {
	eng := sim.NewEngine(3)
	f := topo.SingleSwitch(eng, 2, topo.Params{
		LinkRate:  10 * gig,
		LinkDelay: 2 * sim.Microsecond,
		HostDelay: 1 * sim.Microsecond,
		SwitchBuf: 4500 * units.KB,
		BufAlpha:  0.25,
		Profile:   topo.PlainProfile(100 * units.KB),
	})
	f.Net.Switches[0].Ports()[1].SetLossRate(0.02)
	table := new(transport.Flows)
	ag := []*transport.Agent{
		transport.NewAgent(eng, f.Net.Host(0), table),
		transport.NewAgent(eng, f.Net.Host(1), table),
	}
	fl := &transport.Flow{ID: 1, Src: ag[0], Dst: ag[1], Size: 2_000_000, Transport: "dctcp", Legacy: true}
	legacy := dctcp.LegacyConfig()
	fl.Src.Flows.Add(fl)
	dctcp.StartReceiver(eng, fl, &legacy)
	dctcp.StartSender(eng, fl, &legacy)
	eng.Run(2 * sim.Second)
	if !fl.Completed {
		t.Fatal("DCTCP did not complete under 2% loss")
	}
}

func TestProactiveRetransmissionAblation(t *testing.T) {
	// With proactive retransmission disabled, tail losses must wait for
	// the recovery timer; enabled, the credit loop repairs them silently.
	run := func(disable bool) (*transport.Flow, sim.Time) {
		eng, _, ag := lossyPair(0.02, topo.Spec{})
		cfg := flexCfg(10*gig, 0.5)
		cfg.DisableProRetx = disable
		var worst sim.Time
		var flows []*transport.Flow
		// Many small flows: each tail is exposed to loss.
		for i := 0; i < 40; i++ {
			fl := fpFlow(uint64(i+1), ag[0], ag[1], 30_000)
			flows = append(flows, fl)
			at := sim.Time(i) * 300 * sim.Microsecond
			fl.Start = at
			eng.At(at, func() { Start(eng, fl, cfg) })
		}
		eng.Run(3 * sim.Second)
		timeouts := 0
		for _, fl := range flows {
			if !fl.Completed {
				t.Fatal("flow incomplete")
			}
			if fl.FCT() > worst {
				worst = fl.FCT()
			}
			timeouts += fl.Timeouts
		}
		return flows[0], worst
	}
	_, worstOn := run(false)
	_, worstOff := run(true)
	if worstOff <= worstOn {
		t.Fatalf("ablation: worst FCT with proRetx %v, without %v — expected proRetx to help",
			worstOn, worstOff)
	}
	// Without proactive retransmission the tail is RTO-scale.
	if worstOff < 4*sim.Millisecond {
		t.Fatalf("worst FCT without proRetx = %v; expected RTO-scale stalls", worstOff)
	}
}

func TestFaultInjectionDeterministic(t *testing.T) {
	run := func() (sim.Time, int64) {
		eng, fab, ag := lossyPair(0.03, topo.Spec{})
		fl := fpFlow(1, ag[0], ag[1], 500_000)
		Start(eng, fl, flexCfg(10*gig, 0.5))
		eng.Run(sim.Second)
		return fl.FCT(), fab.Net.Switches[0].Ports()[1].FaultStats().Injected
	}
	fct1, inj1 := run()
	fct2, inj2 := run()
	if fct1 != fct2 || inj1 != inj2 {
		t.Fatalf("fault injection not deterministic: (%v,%d) vs (%v,%d)", fct1, inj1, fct2, inj2)
	}
}
