package expresspass

import (
	"testing"

	"flexpass/internal/netem"
	"flexpass/internal/sim"
	"flexpass/internal/topo"
	"flexpass/internal/transport"
	"flexpass/internal/transport/core"
	"flexpass/internal/transport/dctcp"
	"flexpass/internal/units"
)

// Start begins both halves of an ExpressPass flow on one engine:
// StartReceiver, then StartSender.
func Start(eng *sim.Engine, flow *transport.Flow, cfg Config) (*Sender, *Receiver) {
	flow.Src.Flows.Add(flow)
	cfg.StartReceiver(eng, flow)
	cfg.StartSender(eng, flow)
	return flow.Sender.(*Sender), flow.Receiver.(*Receiver)
}

const gig = units.Gbps

func naiveFabric(hosts int, rate units.Rate) (*sim.Engine, *topo.Fabric, []*transport.Agent) {
	eng := sim.NewEngine(1)
	f := topo.SingleSwitch(eng, hosts, topo.Params{
		LinkRate:  rate,
		LinkDelay: 2 * sim.Microsecond,
		HostDelay: 1 * sim.Microsecond,
		SwitchBuf: 4500 * units.KB,
		BufAlpha:  0.25,
		Profile:   topo.NaiveProfile(topo.Spec{}),
	})
	agents := make([]*transport.Agent, hosts)
	table := new(transport.Flows)
	for i := range agents {
		agents[i] = transport.NewAgent(eng, f.Net.Host(i), table)
	}
	return eng, f, agents
}

func fullCreditRate(rate units.Rate) units.Rate {
	return rate.Scale(netem.CreditRatio)
}

func xpFlow(id uint64, src, dst *transport.Agent, size int64) *transport.Flow {
	return &transport.Flow{ID: id, Src: src, Dst: dst, Size: size, Transport: "expresspass"}
}

func TestSingleFlowNearLineRate(t *testing.T) {
	eng, _, ag := naiveFabric(2, 10*gig)
	fl := xpFlow(1, ag[0], ag[1], 10_000_000)
	Start(eng, fl, DefaultConfig(core.DefaultPacerConfig(fullCreditRate(10*gig))))
	eng.Run(50 * sim.Millisecond)
	if !fl.Completed {
		t.Fatal("flow did not complete")
	}
	rate := units.RateOf(fl.RxBytes, fl.FCT())
	// Goodput ceiling is 10G×1460/1538 ≈ 9.49G; credits pace close to it.
	if rate < 8*gig {
		t.Fatalf("goodput %v, want >8Gbps", rate)
	}
	if fl.Timeouts != 0 {
		t.Fatalf("timeouts = %d, want 0", fl.Timeouts)
	}
}

func TestFirstRTTSpentOnCreditRequest(t *testing.T) {
	eng, _, ag := naiveFabric(2, 10*gig)
	fl := xpFlow(1, ag[0], ag[1], 1460) // one segment
	Start(eng, fl, DefaultConfig(core.DefaultPacerConfig(fullCreditRate(10*gig))))
	eng.Run(10 * sim.Millisecond)
	if !fl.Completed {
		t.Fatal("flow did not complete")
	}
	// Request + credit + data: at least 3 one-way latencies (~1.5 RTT).
	oneWay := 2*2*sim.Microsecond + sim.Microsecond // 2 links + host delay
	if fl.FCT() < 3*oneWay {
		t.Fatalf("FCT %v < 3 one-way delays; credit request phase missing", fl.FCT())
	}
}

func TestTwoFlowsShareViaCreditFeedback(t *testing.T) {
	eng, _, ag := naiveFabric(3, 10*gig)
	f1 := xpFlow(1, ag[0], ag[2], 1<<30)
	f2 := xpFlow(2, ag[1], ag[2], 1<<30)
	cfg := DefaultConfig(core.DefaultPacerConfig(fullCreditRate(10 * gig)))
	Start(eng, f1, cfg)
	Start(eng, f2, cfg)
	eng.Run(30 * sim.Millisecond)
	tot := f1.RxBytes + f2.RxBytes
	if tot == 0 {
		t.Fatal("no progress")
	}
	share := float64(f1.RxBytes) / float64(tot)
	if share < 0.3 || share > 0.7 {
		t.Fatalf("flow 1 share %.3f, want ~0.5", share)
	}
	rate := units.RateOf(tot, 30*sim.Millisecond)
	if rate < 7*gig {
		t.Fatalf("aggregate %v, want >7Gbps", rate)
	}
}

func TestCreditDropsDriveFeedbackDown(t *testing.T) {
	// Both receivers' pacers start at full rate toward one bottleneck
	// (the shared receiver downlink): the credit queue rate limiter must
	// drop credits and feedback must reduce the rates below init.
	eng, _, ag := naiveFabric(3, 10*gig)
	f1 := xpFlow(1, ag[0], ag[2], 1<<30)
	f2 := xpFlow(2, ag[1], ag[2], 1<<30)
	cfg := DefaultConfig(core.DefaultPacerConfig(fullCreditRate(10 * gig)))
	_, r1 := Start(eng, f1, cfg)
	_, r2 := Start(eng, f2, cfg)
	eng.Run(20 * sim.Millisecond)
	max := fullCreditRate(10 * gig)
	if r1.Pacer().Rate()+r2.Pacer().Rate() > max+max/4 {
		t.Fatalf("combined credit rate %v exceeds limit %v by >25%%",
			r1.Pacer().Rate()+r2.Pacer().Rate(), max)
	}
}

func TestExpressPassStarvesDCTCPInSharedQueue(t *testing.T) {
	// Fig 1(a) / Fig 9(a): naïve deployment starves the DCTCP flow.
	eng, _, ag := naiveFabric(3, 10*gig)
	xp := xpFlow(1, ag[0], ag[2], 1<<30)
	dc := &transport.Flow{ID: 2, Src: ag[1], Dst: ag[2], Size: 1 << 30, Transport: "dctcp", Legacy: true}
	Start(eng, xp, DefaultConfig(core.DefaultPacerConfig(fullCreditRate(10*gig))))
	legacy := dctcp.LegacyConfig()
	dc.Src.Flows.Add(dc)
	legacy.StartReceiver(eng, dc)
	legacy.StartSender(eng, dc)
	eng.Run(60 * sim.Millisecond)
	tot := xp.RxBytes + dc.RxBytes
	dcShare := float64(dc.RxBytes) / float64(tot)
	if dcShare > 0.25 {
		t.Fatalf("DCTCP share %.3f; naïve ExpressPass should starve it (<0.25)", dcShare)
	}
	if units.RateOf(tot, 60*sim.Millisecond) < 7*gig {
		t.Fatalf("link underutilized: %v", units.RateOf(tot, 60*sim.Millisecond))
	}
}

func TestLayeredModeDoesNotStarveDCTCP(t *testing.T) {
	// LY gates credit sends with a DCTCP window over shared-queue ECN, so
	// the legacy flow gets a reasonable share.
	eng, _, ag := naiveFabric(3, 10*gig)
	xp := xpFlow(1, ag[0], ag[2], 1<<30)
	dc := &transport.Flow{ID: 2, Src: ag[1], Dst: ag[2], Size: 1 << 30, Transport: "dctcp", Legacy: true}
	cfg := DefaultConfig(core.DefaultPacerConfig(fullCreditRate(10 * gig)))
	cfg.Layered = true
	cfg.DataECN = true
	Start(eng, xp, cfg)
	legacy := dctcp.LegacyConfig()
	dc.Src.Flows.Add(dc)
	legacy.StartReceiver(eng, dc)
	legacy.StartSender(eng, dc)
	eng.Run(60 * sim.Millisecond)
	tot := xp.RxBytes + dc.RxBytes
	dcShare := float64(dc.RxBytes) / float64(tot)
	if dcShare < 0.25 {
		t.Fatalf("DCTCP share %.3f under layering, want >0.25", dcShare)
	}
}

func TestRecoveryAfterLostCreditRequest(t *testing.T) {
	// Drop the first request by pointing the flow at a host that ignores
	// it... instead simulate loss pressure: fill the credit queue so the
	// request drops, and rely on the recovery timer to re-request.
	eng, _, ag := naiveFabric(2, 10*gig)
	fl := xpFlow(1, ag[0], ag[1], 100_000)
	cfg := DefaultConfig(core.DefaultPacerConfig(fullCreditRate(10 * gig)))
	fl.Src.Flows.Add(fl)
	s := NewSender(eng, fl, &cfg)
	r := NewReceiver(eng, fl, &cfg)
	fl.Sender = s
	// Start the receiver only after 0.5ms: the first request reaches a
	// flow with no receiver and is ignored (equivalent to a loss).
	eng.After(500*sim.Microsecond, func() { fl.Receiver = r })
	s.Begin()
	eng.Run(50 * sim.Millisecond)
	if !fl.Completed {
		t.Fatal("flow did not recover from lost credit request")
	}
	if fl.Timeouts == 0 {
		t.Fatal("recovery timer should have fired")
	}
}

func TestPacerFeedbackUnit(t *testing.T) {
	eng := sim.NewEngine(1)
	nic := netem.NewPort(eng, "nic", 10*gig, 0, topo.NaiveProfile(topo.Spec{})(10*gig), nil)
	h := netem.NewHost(eng, 1, "h", nic, 0)
	cfg := core.DefaultPacerConfig(500 * units.Mbps)
	cfg.InitRate = 50 * units.Mbps
	var p core.Pacer
	p.Init(eng, h, 2, 7, &cfg)
	// Every credit that leaves the NIC counts as delivered data: a
	// lossless path. Rate must climb to the max.
	nic.Connect(deliverFunc(func(pkt *netem.Packet) { p.OnData(pkt.SubSeq) }))
	p.Start()
	eng.Run(100 * cfg.Period)
	if p.Rate() < 400*units.Mbps {
		t.Fatalf("rate %v after lossless periods, want near 500Mbps", p.Rate())
	}
	p.Stop()
	if p.Active() {
		t.Fatal("pacer still active after Stop")
	}
}

func TestPacerBacksOffUnderTotalLoss(t *testing.T) {
	eng := sim.NewEngine(1)
	nic := netem.NewPort(eng, "nic", 10*gig, 0, topo.NaiveProfile(topo.Spec{})(10*gig), nil)
	h := netem.NewHost(eng, 1, "h", nic, 0)
	cfg := core.DefaultPacerConfig(500 * units.Mbps)
	var p core.Pacer
	p.Init(eng, h, 2, 7, &cfg)
	nic.Connect(deliverFunc(func(*netem.Packet) {})) // nothing delivered
	p.Start()
	eng.Run(50 * cfg.Period)
	if p.Rate() > 50*units.Mbps {
		t.Fatalf("rate %v under 100%% loss, want collapsed to the floor", p.Rate())
	}
}

type deliverFunc func(*netem.Packet)

func (f deliverFunc) NodeID() netem.NodeID    { return 2 }
func (f deliverFunc) Receive(p *netem.Packet) { f(p) }
