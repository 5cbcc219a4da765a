package flexpass

import (
	"math/rand"
	"testing"
	"testing/quick"

	"flexpass/internal/netem"
	"flexpass/internal/sim"
	"flexpass/internal/topo"
	"flexpass/internal/transport"
	"flexpass/internal/units"
)

// TestSenderRobustAgainstAdversarialPackets feeds a FlexPass sender
// random (possibly nonsensical) credits and ACKs and checks it neither
// panics nor corrupts its invariants. A real network reorders, drops,
// duplicates, and delays — the endpoint must tolerate any packet
// sequence.
func TestSenderRobustAgainstAdversarialPackets(t *testing.T) {
	f := func(script []uint32) bool {
		eng := sim.NewEngine(99)
		fb := topo.SingleSwitch(eng, 2, topo.Params{
			LinkRate:  10 * gig,
			LinkDelay: sim.Microsecond,
			HostDelay: 0,
			SwitchBuf: 1000 * units.KB,
			BufAlpha:  0.5,
			Profile:   topo.FlexPassProfile(topo.Spec{}),
		})
		table := new(transport.Flows)
		ag := []*transport.Agent{
			transport.NewAgent(eng, fb.Net.Host(0), table),
			transport.NewAgent(eng, fb.Net.Host(1), table),
		}
		fl := table.Add(fpFlow(1, ag[0], ag[1], 50_000))
		cfg := flexCfg(10*gig, 0.5)
		s := NewSender(eng, fl, &cfg)
		fl.Sender = s
		// No receiver: every packet the fuzzer crafts goes straight into
		// the sender's Handle.
		s.Begin()
		kinds := []netem.Kind{netem.KindCredit, netem.KindAckRe, netem.KindAckPro, netem.KindLegacyData}
		for i, w := range script {
			pkt := &netem.Packet{
				Kind:   kinds[int(w)%len(kinds)],
				Flow:   fl.ID,
				Seq:    w % 97, // sometimes far out of range
				SubSeq: (w / 7) % 89,
				CE:     w%3 == 0,
				SentAt: eng.Now(),
			}
			s.Handle(pkt)
			if i%5 == 0 {
				eng.Run(eng.Now() + 10*sim.Microsecond)
			}
			// Invariants after every packet.
			if s.reOutstanding < 0 {
				t.Errorf("reOutstanding went negative: %d", s.reOutstanding)
				return false
			}
			if s.ackedCount > fl.Segs() {
				t.Errorf("ackedCount %d > segs %d", s.ackedCount, fl.Segs())
				return false
			}
			if s.win.Cwnd < 1 {
				t.Errorf("cwnd below 1: %v", s.win.Cwnd)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(31))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestReceiverRobustAgainstAdversarialPackets mirrors the sender fuzz on
// the receive side: arbitrary data packets with wild sequence numbers
// must never panic or over-complete the flow.
func TestReceiverRobustAgainstAdversarialPackets(t *testing.T) {
	f := func(script []uint32) bool {
		eng := sim.NewEngine(7)
		fb := topo.SingleSwitch(eng, 2, topo.Params{
			LinkRate:  10 * gig,
			LinkDelay: sim.Microsecond,
			HostDelay: 0,
			SwitchBuf: 1000 * units.KB,
			BufAlpha:  0.5,
			Profile:   topo.FlexPassProfile(topo.Spec{}),
		})
		table := new(transport.Flows)
		ag := []*transport.Agent{
			transport.NewAgent(eng, fb.Net.Host(0), table),
			transport.NewAgent(eng, fb.Net.Host(1), table),
		}
		fl := table.Add(fpFlow(1, ag[0], ag[1], 20_000))
		cfg := flexCfg(10*gig, 0.5)
		r := NewReceiver(eng, fl, &cfg)
		fl.Receiver = r
		completions := 0
		fl.OnComplete = func(*transport.Flow) { completions++ }
		kinds := []netem.Kind{netem.KindProData, netem.KindReData, netem.KindCreditReq, netem.KindAckPro}
		for _, w := range script {
			r.Handle(&netem.Packet{
				Kind:   kinds[int(w)%len(kinds)],
				Flow:   fl.ID,
				Seq:    w % 53,
				SubSeq: (w / 3) % 61,
				Echo:   w % 13,
				Size:   1538,
				SentAt: eng.Now(),
			})
			if completions > 1 {
				t.Error("flow completed more than once")
				return false
			}
			if fl.RxBytes > fl.Size {
				t.Errorf("RxBytes %d exceeds flow size %d", fl.RxBytes, fl.Size)
				return false
			}
		}
		eng.Run(eng.Now() + sim.Millisecond)
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(13))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Random loss sweep: at every loss rate the flow completes and is
// delivered exactly once.
func TestLossRateSweepConservation(t *testing.T) {
	for _, loss := range []float64{0.001, 0.01, 0.03, 0.08} {
		eng, _, ag := lossyPair(loss, topo.Spec{})
		fl := fpFlow(1, ag[0], ag[1], 300_000)
		Start(eng, fl, flexCfg(10*gig, 0.5))
		eng.Run(3 * sim.Second)
		if !fl.Completed {
			t.Fatalf("loss %.3f: flow incomplete", loss)
		}
		if fl.RxBytes != fl.Size {
			t.Fatalf("loss %.3f: delivered %d of %d bytes", loss, fl.RxBytes, fl.Size)
		}
	}
}
