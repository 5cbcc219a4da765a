package phost

import (
	"testing"

	"flexpass/internal/netem"
	"flexpass/internal/sim"
	"flexpass/internal/topo"
	"flexpass/internal/transport"
	"flexpass/internal/units"
)

// Start begins both halves of a pHost flow on one engine — StartReceiver
// on arb, as the receiver host's arbiter, then StartSender.
func Start(eng *sim.Engine, flow *transport.Flow, arb *Arbiter, cfg Config) (*Sender, *Receiver) {
	flow.Src.Flows.Add(flow)
	cfg.arbiters.byHost = map[*netem.Host]*Arbiter{flow.Dst.Host: arb}
	cfg.StartReceiver(eng, flow)
	cfg.StartSender(eng, flow)
	return flow.Sender.(*Sender), flow.Receiver.(*Receiver)
}

const gig = units.Gbps

func fabric(hosts int) (*sim.Engine, *topo.Fabric, []*transport.Agent, []*Arbiter) {
	eng := sim.NewEngine(1)
	f := topo.SingleSwitch(eng, hosts, topo.Params{
		LinkRate:  10 * gig,
		LinkDelay: 2 * sim.Microsecond,
		HostDelay: 1 * sim.Microsecond,
		SwitchBuf: 4500 * units.KB,
		BufAlpha:  0.25,
		Profile:   topo.FlexPassProfile(topo.Spec{}),
	})
	ag := make([]*transport.Agent, hosts)
	arbs := make([]*Arbiter, hosts)
	table := new(transport.Flows)
	for i := range ag {
		ag[i] = transport.NewAgent(eng, f.Net.Host(i), table)
		arbs[i] = NewArbiter(eng, f.Net.Host(i), 10*gig)
	}
	return eng, f, ag, arbs
}

func TestSingleFlowCompletes(t *testing.T) {
	eng, _, ag, arbs := fabric(2)
	fl := &transport.Flow{ID: 1, Src: ag[0], Dst: ag[1], Size: 5_000_000, Transport: "phost"}
	Start(eng, fl, arbs[1], DefaultConfig(10*gig))
	eng.Run(100 * sim.Millisecond)
	if !fl.Completed {
		t.Fatal("flow did not complete")
	}
	rate := units.RateOf(fl.RxBytes, fl.FCT())
	if rate < 7*gig {
		t.Fatalf("goodput %v, want near line rate", rate)
	}
	if fl.Timeouts != 0 {
		t.Fatalf("timeouts = %d", fl.Timeouts)
	}
}

func TestTinyFlowRidesFreeWindow(t *testing.T) {
	eng, _, ag, arbs := fabric(2)
	fl := &transport.Flow{ID: 1, Src: ag[0], Dst: ag[1], Size: 4000, Transport: "phost"}
	Start(eng, fl, arbs[1], DefaultConfig(10*gig))
	eng.Run(10 * sim.Millisecond)
	if !fl.Completed {
		t.Fatal("flow did not complete")
	}
	// 3 segments ≤ freeSegs: one-way latency, no token round trip.
	if fl.FCT() > 12*sim.Microsecond {
		t.Fatalf("FCT %v, want first-RTT completion", fl.FCT())
	}
	// The whole flow fits in the free window; the arbiter may slip in a
	// couple of surplus tokens before the last free segments land, but
	// not more.
	if fl.CreditsGranted > 3 {
		t.Fatalf("tokens granted = %d, want ~0 for a free-window flow", fl.CreditsGranted)
	}
}

func TestArbiterSharesDownlinkRoundRobin(t *testing.T) {
	eng, _, ag, arbs := fabric(3)
	f1 := &transport.Flow{ID: 1, Src: ag[0], Dst: ag[2], Size: 20_000_000, Transport: "phost"}
	f2 := &transport.Flow{ID: 2, Src: ag[1], Dst: ag[2], Size: 20_000_000, Transport: "phost"}
	cfg := DefaultConfig(10 * gig)
	Start(eng, f1, arbs[2], cfg)
	Start(eng, f2, arbs[2], cfg)
	eng.Run(20 * sim.Millisecond)
	tot := f1.RxBytes + f2.RxBytes
	if tot == 0 {
		t.Fatal("no progress")
	}
	share := float64(f1.RxBytes) / float64(tot)
	if share < 0.45 || share > 0.55 {
		t.Fatalf("flow 1 share %.3f, want ~0.5 (round robin)", share)
	}
	if units.RateOf(tot, 20*sim.Millisecond) < 7*gig {
		t.Fatalf("downlink underutilized: %v", units.RateOf(tot, 20*sim.Millisecond))
	}
}

func TestOutstandingCapStopsTokenLeak(t *testing.T) {
	// Drop every data packet toward the receiver: tokens must stop at the
	// cap instead of flooding forever.
	eng, fab, ag, arbs := fabric(2)
	fab.Net.Switches[0].Ports()[1].SetLossRate(1.0)
	fl := &transport.Flow{ID: 1, Src: ag[0], Dst: ag[1], Size: 1_000_000, Transport: "phost"}
	Start(eng, fl, arbs[1], DefaultConfig(10*gig))
	eng.Run(20 * sim.Millisecond)
	if fl.Completed {
		t.Fatal("flow cannot complete over a dead link")
	}
	if arbs[1].TokensSent > 0 {
		// Tokens only flow once data announces the flow; with 100% loss
		// nothing arrives, so no tokens at all.
		t.Fatalf("arbiter sent %d tokens for an unannounced flow", arbs[1].TokensSent)
	}
}

func TestRecoveryUnderPartialLoss(t *testing.T) {
	eng, fab, ag, arbs := fabric(2)
	fab.Net.Switches[0].Ports()[1].SetLossRate(0.02)
	fl := &transport.Flow{ID: 1, Src: ag[0], Dst: ag[1], Size: 2_000_000, Transport: "phost"}
	Start(eng, fl, arbs[1], DefaultConfig(10*gig))
	eng.Run(sim.Second)
	if !fl.Completed {
		t.Fatal("flow did not recover under 2% loss")
	}
	if fl.Retransmits == 0 {
		t.Fatal("expected retransmissions")
	}
}

func TestManyFlowsAllComplete(t *testing.T) {
	eng, _, ag, arbs := fabric(9)
	var flows []*transport.Flow
	cfg := DefaultConfig(10 * gig)
	for i := 0; i < 40; i++ {
		fl := &transport.Flow{ID: uint64(i + 1), Src: ag[i%8], Dst: ag[8], Size: 64_000, Transport: "phost"}
		flows = append(flows, fl)
		Start(eng, fl, arbs[8], cfg)
	}
	eng.Run(500 * sim.Millisecond)
	for _, fl := range flows {
		if !fl.Completed {
			t.Fatal("incast flow incomplete")
		}
	}
}

// idleParticipant wants no tokens; done says whether its flow finished.
type idleParticipant struct {
	membership
	done bool
}

func (p *idleParticipant) demand() bool    { return false }
func (p *idleParticipant) sendToken()      {}
func (p *idleParticipant) completed() bool { return p.done }

// TestArbiterListsOnce: registering a listed participant again leaves
// the rotation as it is, and one the compaction dropped joins it again.
func TestArbiterListsOnce(t *testing.T) {
	eng := sim.NewEngine(1)
	a := NewArbiter(eng, nil, 10*gig)
	ps := make([]*idleParticipant, 17) // the compaction runs past 16
	for i := range ps {
		ps[i] = new(idleParticipant)
		a.register(ps[i])
	}
	a.register(ps[0])
	if len(a.flows) != 17 {
		t.Fatalf("%d listed after a second register, want 17", len(a.flows))
	}
	ps[0].done = true
	a.tick()
	if len(a.flows) != 16 || ps[0].listed {
		t.Fatalf("after compaction: %d listed, dropped one listed=%v; want 16, false", len(a.flows), ps[0].listed)
	}
	a.register(ps[0])
	if len(a.flows) != 17 || a.flows[16] != participant(ps[0]) {
		t.Fatalf("a dropped participant did not rejoin at the end: %d listed", len(a.flows))
	}
}
