package netem

import (
	"testing"

	"flexpass/internal/sim"
	"flexpass/internal/units"
)

// TestLinkDownResume: taking a port down blackholes arrivals and pauses
// the serializer, but keeps already-queued frames; bringing it back up
// drains the backlog. Frames sent while the link is down are charged to
// LinkDown fault drops; everything queued before the failure survives.
func TestLinkDownResume(t *testing.T) {
	eng := sim.NewEngine(1)
	net, hosts, bottleneck := faultFabric(eng)
	w := &dropWatcher{}
	net.SetHopObserver(w)
	dst := hosts[2].NodeID()

	// Both senders push 5 frames at t=0 — a 2-to-1 overload, so a backlog
	// forms at the bottleneck. All 10 frames have reached the bottleneck
	// (queued, in flight, or delivered) by ~7us: 5×1.2us NIC serialization
	// plus 1us propagation.
	for i := 0; i < 10; i++ {
		hosts[i%2].Send(&Packet{Dst: dst, Flow: uint64(1 + i%2), Seq: uint32(i), Size: 1500})
	}
	var duringDown int64 = -1
	eng.At(8500*sim.Nanosecond, func() { bottleneck.SetDown(true) })
	// By 12us the frame that was on the wire at failure time has landed;
	// from here until the link returns the count must not move.
	eng.At(12*sim.Microsecond, func() { duringDown = hosts[2].RxPackets })
	eng.At(50*sim.Microsecond, func() {
		for i := 10; i < 15; i++ {
			hosts[1].Send(&Packet{Dst: dst, Flow: 2, Seq: uint32(i), Size: 1500})
		}
	})
	eng.At(99*sim.Microsecond, func() {
		if hosts[2].RxPackets != duringDown {
			t.Errorf("down link delivered %d more packets", hosts[2].RxPackets-duringDown)
		}
		if !bottleneck.Down() {
			t.Error("port should report Down")
		}
	})
	eng.At(100*sim.Microsecond, func() { bottleneck.SetDown(false) })
	eng.Run(sim.Second)

	if duringDown <= 0 || duringDown >= 10 {
		t.Fatalf("snapshot during downtime = %d, want partial delivery (test timing broken)", duringDown)
	}
	if hosts[2].RxPackets != 10 {
		t.Fatalf("delivered %d packets, want all 10 pre-failure frames after resume", hosts[2].RxPackets)
	}
	st := bottleneck.FaultStats()
	if st.LinkDown != 5 || st.Injected != 5 {
		t.Fatalf("FaultStats = %+v, want 5 link-down drops", st)
	}
	if w.reasons[DropLinkDown] != 5 || w.queues[-1] != 5 {
		t.Fatalf("observer saw %v / queues %v, want 5 DropLinkDown at queue -1", w.reasons, w.queues)
	}
}

// txWatcher records the serialization time of every dequeue.
type txWatcher struct {
	txs []sim.Time
}

func (w *txWatcher) HopEnqueue(sim.Time, *Port, int, *Packet, int64) {}
func (w *txWatcher) HopDrop(sim.Time, *Port, int, *Packet, DropReason) {
}
func (w *txWatcher) HopDequeue(_ sim.Time, _ *Port, _ int, _ *Packet, _, tx sim.Time) {
	w.txs = append(w.txs, tx)
}

// TestRateDegrade: a degraded port serializes at the scaled rate; the
// frame already on the wire when the degrade lands was committed at the
// old rate; restoring snaps back to line rate.
func TestRateDegrade(t *testing.T) {
	eng := sim.NewEngine(1)
	_, hosts, bottleneck := faultFabric(eng)
	w := &txWatcher{}
	bottleneck.SetHopObserver(w)
	dst := hosts[2].NodeID()

	full := (10 * units.Gbps).TxTime(1500)
	half := (5 * units.Gbps).TxTime(1500)

	for i := 0; i < 4; i++ {
		hosts[0].Send(&Packet{Dst: dst, Flow: 1, Seq: uint32(i), Size: 1500})
	}
	// Frame 0 is serialized on the bottleneck 2.2us–3.4us (NIC tx 1.2us +
	// 1us propagation, then 1.2us on the wire). Degrading at 3us lands
	// mid-frame: frame 0 keeps its committed full-rate tx, frames 1–3 go
	// out at half rate.
	eng.At(3*sim.Microsecond, func() { bottleneck.SetRateFraction(0.5) })
	eng.At(40*sim.Microsecond, func() {
		bottleneck.SetRateFraction(1)
		for i := 4; i < 6; i++ {
			hosts[0].Send(&Packet{Dst: dst, Flow: 1, Seq: uint32(i), Size: 1500})
		}
	})
	eng.Run(sim.Second)

	if hosts[2].RxPackets != 6 {
		t.Fatalf("delivered %d packets, want 6", hosts[2].RxPackets)
	}
	want := []sim.Time{full, half, half, half, full, full}
	if len(w.txs) != len(want) {
		t.Fatalf("bottleneck recorded %d dequeues, want %d (txs: %v)", len(w.txs), len(want), w.txs)
	}
	for i, tx := range w.txs {
		if tx != want[i] {
			t.Fatalf("dequeue %d serialized in %v, want %v (txs: %v)", i, tx, want[i], w.txs)
		}
	}
	if bottleneck.EffectiveRate() != 10*units.Gbps {
		t.Fatalf("EffectiveRate = %v after restore, want 10Gbps", bottleneck.EffectiveRate())
	}
}

// seqDropWatcher marks which sequence numbers were fault-dropped.
type seqDropWatcher struct {
	fates []bool
}

func (w *seqDropWatcher) HopEnqueue(sim.Time, *Port, int, *Packet, int64)              {}
func (w *seqDropWatcher) HopDequeue(sim.Time, *Port, int, *Packet, sim.Time, sim.Time) {}
func (w *seqDropWatcher) HopDrop(_ sim.Time, _ *Port, _ int, pkt *Packet, _ DropReason) {
	if int(pkt.Seq) < len(w.fates) {
		w.fates[pkt.Seq] = true
	}
}

// TestGilbertElliottBurstLengths: with LossBad=1 and mean burst length
// 1/PBadGood = 4, drops arrive in consecutive runs whose average is
// near 4 — the defining difference from Bernoulli loss — and the whole
// pattern replays identically under the same seed.
func TestGilbertElliottBurstLengths(t *testing.T) {
	const n = 20000
	run := func() (bursts []int, injected int64) {
		eng := sim.NewEngine(42)
		_, hosts, bottleneck := faultFabric(eng)
		bottleneck.SetGilbertElliott(GilbertElliott{
			PGoodBad: 1.0 / 50,
			PBadGood: 1.0 / 4,
			LossBad:  1,
		})
		dropped := make([]bool, n)
		bottleneck.SetHopObserver(&seqDropWatcher{fates: dropped})
		dst := hosts[2].NodeID()
		for i := 0; i < n; i++ {
			hosts[0].Send(&Packet{Dst: dst, Flow: 1, Seq: uint32(i), Size: 1500})
		}
		eng.Run(sim.Second)
		// A single FIFO sender means bottleneck arrival order is sequence
		// order, so consecutive-seq runs are the model's loss bursts.
		runLen := 0
		for i := 0; i < n; i++ {
			if dropped[i] {
				runLen++
			} else if runLen > 0 {
				bursts = append(bursts, runLen)
				runLen = 0
			}
		}
		if runLen > 0 {
			bursts = append(bursts, runLen)
		}
		return bursts, bottleneck.FaultStats().BurstLoss
	}

	bursts, injected := run()
	if len(bursts) < 50 {
		t.Fatalf("only %d loss bursts in %d packets; model not engaging", len(bursts), n)
	}
	var sum int
	for _, b := range bursts {
		sum += b
	}
	mean := float64(sum) / float64(len(bursts))
	if mean < 3 || mean > 5.5 {
		t.Fatalf("mean burst length %.2f, want ≈4 (1/PBadGood)", mean)
	}
	if int64(sum) != injected {
		t.Fatalf("burst-run total %d != injected counter %d", sum, injected)
	}

	b2, i2 := run()
	if len(b2) != len(bursts) || i2 != injected {
		t.Fatalf("GE model not deterministic: %d/%d bursts, %d/%d injected",
			len(bursts), len(b2), injected, i2)
	}
}

// TestBernoulliDrawCompat: SetLossRate must consume exactly one random
// draw per packet — the historical sequence — so runs recorded before
// the Gilbert–Elliott model existed replay bit-identically.
func TestBernoulliDrawCompat(t *testing.T) {
	eng := sim.NewEngine(99)
	_, hosts, bottleneck := faultFabric(eng)
	// Reference decision sequence from a copy of the port's own stream.
	ref := bottleneck.rng
	if ref != eng.Stream(uint64(bottleneck.link)) {
		t.Fatal("port stream is not Engine.Stream of its link number")
	}
	var want []bool
	for i := 0; i < 500; i++ {
		want = append(want, ref.Float64() < 0.3)
	}
	bottleneck.SetLossRate(0.3)
	dropped := make([]bool, len(want))
	bottleneck.SetHopObserver(&seqDropWatcher{fates: dropped})
	dst := hosts[2].NodeID()
	for i := range want {
		hosts[0].Send(&Packet{Dst: dst, Flow: 1, Seq: uint32(i), Size: 1500})
	}
	eng.Run(sim.Second)

	for i := range want {
		if dropped[i] != want[i] {
			t.Fatalf("packet %d fate %v, want %v — Bernoulli path consumed extra draws", i, dropped[i], want[i])
		}
	}
}

// TestCreditOnlyLoss: SetCreditLossRate hits KindCredit exclusively —
// data on the same port passes untouched.
func TestCreditOnlyLoss(t *testing.T) {
	eng := sim.NewEngine(3)
	net, hosts, bottleneck := faultFabric(eng)
	w := &dropWatcher{}
	net.SetHopObserver(w)
	bottleneck.SetCreditLossRate(1.0)
	dst := hosts[2].NodeID()

	const n = 30
	credits := int64(0)
	for i := 0; i < n; i++ {
		kind := KindProData
		if i%3 == 0 {
			kind = KindCredit
			credits++
		}
		hosts[0].Send(&Packet{Dst: dst, Flow: 1, Seq: uint32(i), Size: 84, Kind: kind})
	}
	eng.Run(sim.Second)

	if st := bottleneck.FaultStats(); st.CreditLoss != credits || st.Injected != credits {
		t.Fatalf("FaultStats = %+v, want %d credit drops", st, credits)
	}
	if hosts[2].RxPackets != int64(n)-credits {
		t.Fatalf("delivered %d, want all %d non-credit packets", hosts[2].RxPackets, int64(n)-credits)
	}
	if w.reasons[DropCreditLoss] != int(credits) {
		t.Fatalf("observer reasons %v, want %d DropCreditLoss", w.reasons, credits)
	}
}
