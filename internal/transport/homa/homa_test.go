package homa

import (
	"testing"

	"flexpass/internal/netem"
	"flexpass/internal/sim"
	"flexpass/internal/topo"
	"flexpass/internal/transport"
	"flexpass/internal/transport/dctcp"
	"flexpass/internal/units"
)

// Start begins both halves of a Homa-lite flow on one engine:
// StartReceiver, then StartSender.
func Start(eng *sim.Engine, flow *transport.Flow, cfg Config) (*Sender, *Receiver) {
	flow.Src.Flows.Add(flow)
	r := StartReceiver(eng, flow, &cfg)
	return StartSender(eng, flow, &cfg), r
}

const gig = units.Gbps

// homaProfile is Homa's native layout: 8 strict-priority queues (class =
// priority, 0 highest) with an ECN threshold on queue 0, where the DCTCP
// flows of TestManyHomaFlowsStarveDCTCP ride.
func homaProfile(legacyECN units.ByteSize) topo.PortProfile {
	return func(rate units.Rate) netem.PortConfig {
		qs := make([]netem.QueueConfig, 8)
		for i := range qs {
			qs[i] = netem.QueueConfig{Name: "P" + string(rune('0'+i)), Band: i}
		}
		qs[0].ECNThreshold = legacyECN
		return netem.PortConfig{Queues: qs}
	}
}

func TestHomaProfileEightPriorities(t *testing.T) {
	cfg := homaProfile(100 * units.KB)(10 * units.Gbps)
	if len(cfg.Queues) != 8 {
		t.Fatalf("%d queues, want 8", len(cfg.Queues))
	}
	for i, q := range cfg.Queues {
		if q.Band != i {
			t.Fatalf("queue %d band %d; want strict priority ladder", i, q.Band)
		}
	}
	if cfg.Queues[0].ECNThreshold == 0 {
		t.Fatal("P0 needs the DCTCP marking threshold")
	}
}

func homaFabric(nPairs int) (*sim.Engine, *topo.Fabric, []*transport.Agent) {
	eng := sim.NewEngine(1)
	f := topo.Dumbbell(eng, nPairs, nPairs, 10*gig, topo.Params{
		LinkRate:  10 * gig,
		LinkDelay: 2 * sim.Microsecond,
		HostDelay: 1 * sim.Microsecond,
		SwitchBuf: 4500 * units.KB,
		BufAlpha:  0.25,
		Profile:   homaProfile(100 * units.KB),
	})
	agents := make([]*transport.Agent, len(f.Net.Hosts))
	table := new(transport.Flows)
	for i := range agents {
		agents[i] = transport.NewAgent(eng, f.Net.Host(i), table)
	}
	return eng, f, agents
}

func TestSingleHomaFlowNearLineRate(t *testing.T) {
	eng, _, ag := homaFabric(1)
	fl := &transport.Flow{ID: 1, Src: ag[0], Dst: ag[1], Size: 1 << 30, Transport: "homa"}
	Start(eng, fl, DefaultConfig(10*gig))
	eng.Run(30 * sim.Millisecond)
	rate := units.RateOf(fl.RxBytes, 30*sim.Millisecond)
	if rate < 8*gig {
		t.Fatalf("goodput %v, want >8Gbps", rate)
	}
}

func TestFiniteHomaFlowCompletes(t *testing.T) {
	eng, _, ag := homaFabric(1)
	fl := &transport.Flow{ID: 1, Src: ag[0], Dst: ag[1], Size: 1_000_000, Transport: "homa"}
	Start(eng, fl, DefaultConfig(10*gig))
	eng.Run(30 * sim.Millisecond)
	if !fl.Completed {
		t.Fatal("finite flow on a clean path did not complete")
	}
}

func TestManyHomaFlowsStarveDCTCP(t *testing.T) {
	// Fig 1(b): 16 HOMA + 16 DCTCP long flows over a 10Gbps bottleneck;
	// DCTCP collapses to a small share while HOMA grabs the link.
	eng, _, ag := homaFabric(32)
	// Left hosts 0..31 (after the two switches, hosts index 0..63:
	// fabric built lefts first). Pair i: left i -> right i (host 32+i).
	var homaFlows, dcFlows []*transport.Flow
	id := uint64(1)
	for i := 0; i < 16; i++ {
		fl := &transport.Flow{ID: id, Src: ag[i], Dst: ag[32+i], Size: 1 << 30, Transport: "homa"}
		homaFlows = append(homaFlows, fl)
		Start(eng, fl, DefaultConfig(10*gig))
		id++
	}
	for i := 16; i < 32; i++ {
		fl := &transport.Flow{ID: id, Src: ag[i], Dst: ag[32+i], Size: 1 << 30, Transport: "dctcp", Legacy: true}
		dcFlows = append(dcFlows, fl)
		legacy := dctcp.LegacyConfig()
		fl.Src.Flows.Add(fl)
		dctcp.StartReceiver(eng, fl, &legacy)
		dctcp.StartSender(eng, fl, &legacy)
		id++
	}
	eng.Run(60 * sim.Millisecond)
	var homaB, dcB int64
	for _, fl := range homaFlows {
		homaB += fl.RxBytes
	}
	for _, fl := range dcFlows {
		dcB += fl.RxBytes
	}
	tot := homaB + dcB
	if tot == 0 {
		t.Fatal("no progress")
	}
	dcShare := float64(dcB) / float64(tot)
	if dcShare > 0.3 {
		t.Fatalf("DCTCP share %.3f; Homa over-granting should starve it", dcShare)
	}
}

func TestMessageBoundaryUnscheduledBursts(t *testing.T) {
	// Each message boundary fires a fresh unscheduled burst into the top
	// priority queue — the collision mechanism behind Fig 1(b).
	eng, fab, ag := homaFabric(1)
	cfg := DefaultConfig(10 * gig)
	cfg.MsgSegs = 50 // small messages: frequent boundaries
	fl := &transport.Flow{ID: 1, Src: ag[0], Dst: ag[1], Size: 1_000_000, Transport: "homa"}
	Start(eng, fl, cfg)
	eng.Run(50 * sim.Millisecond)
	if !fl.Completed {
		t.Fatal("flow did not complete")
	}
	// Unscheduled data rides class 0; with ~14 messages of 50 segs the
	// P0 queue must have carried several bursts (8 unscheduled each).
	var p0 int64
	for _, sw := range fab.Net.Switches {
		for _, port := range sw.Ports() {
			p0 += port.QueueStats(0).EnqueuedB
		}
	}
	if p0 < 13*8*1538 {
		t.Fatalf("P0 carried only %dB; message-boundary bursts missing", p0)
	}
}
