package shard

import (
	"runtime"
	"strings"
	"sync"
	"testing"

	"flexpass/internal/netem"
	"flexpass/internal/sim"
)

// sink records every delivery with its arrival instant. It belongs to
// one shard's engine, so appends are single-goroutine during the run.
type sink struct {
	eng *sim.Engine
	log []delivery
}

type delivery struct {
	at   sim.Time
	flow uint64
	seq  uint32
}

func (s *sink) NodeID() netem.NodeID { return 0 }
func (s *sink) Receive(pkt *netem.Packet) {
	s.log = append(s.log, delivery{at: s.eng.Now(), flow: pkt.Flow, seq: pkt.Seq})
}

const la = 10 * sim.Microsecond // test lookahead

func newRuntime(t *testing.T, n int) (*Runtime, []*sim.Engine) {
	t.Helper()
	engs := make([]*sim.Engine, n)
	for i := range engs {
		engs[i] = sim.NewEngine(42)
	}
	return New(engs, la), engs
}

// TestHandoffDeterministicMerge drives two source shards into one sink
// shard with colliding timestamps: same-instant arrivals must dispatch
// after the sink's own unranked events and in link-rank order — not in
// source-shard order — and two identical runs must observe the identical
// delivery log.
func TestHandoffDeterministicMerge(t *testing.T) {
	// Flow 0 is the sink's local event; shard 2's link ranks before
	// shard 1's.
	place := map[uint64]int{0: 0, 2: 1, 1: 2}
	run := func() []delivery {
		rt, engs := newRuntime(t, 3)
		sk := &sink{eng: engs[0]}
		e1 := rt.Connect(1, 0)
		e2 := rt.Connect(2, 0)
		// Both senders emit at the same instants; every arrival lands
		// exactly one lookahead later, including exact ties between the
		// two source shards and with the sink's local events.
		for src, edge := range map[int]*Edge{1: e1, 2: e2} {
			eng := engs[src]
			rank := uint32(4 - src)
			for i := 0; i < 40; i++ {
				eng.At(sim.Time(i)*sim.Microsecond, func() {
					edge.DeliverRanked(eng.Now()+la+sim.Nanosecond, rank, &netem.Packet{
						Flow: uint64(src), Seq: uint32(i),
					}, sk)
				})
			}
		}
		for i := 0; i < 40; i++ {
			engs[0].At(sim.Time(i)*sim.Microsecond+la+sim.Nanosecond, func() {
				sk.Receive(&netem.Packet{Seq: uint32(i)})
			})
		}
		rt.Run(100 * sim.Microsecond)
		return sk.log
	}
	got := run()
	if len(got) != 120 {
		t.Fatalf("logged %d of 120", len(got))
	}
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if b.at < a.at {
			t.Fatalf("deliveries out of time order at %d: %+v then %+v", i, a, b)
		}
		if b.at == a.at && place[b.flow] < place[a.flow] {
			t.Fatalf("tie at %v resolved against (local, rank) order: %+v then %+v", b.at, a, b)
		}
	}
	again := run()
	for i := range got {
		if got[i] != again[i] {
			t.Fatalf("run-twice divergence at %d: %+v vs %+v", i, got[i], again[i])
		}
	}
}

// TestHorizonMonotonic polls the engines' sim.Watch cells from a second
// goroutine while the fabric runs (the watchdog / live-status access
// pattern, so this doubles as the -race check on windowed runs under a
// watch) and asserts the fleet-minimum clock only moves forward, ending
// at `until`.
func TestHorizonMonotonic(t *testing.T) {
	rt, engs := newRuntime(t, 2)
	watches := []*sim.Watch{{}, {}}
	for i, eng := range engs {
		eng.SetWatch(watches[i])
	}
	horizon := func() int64 {
		h := watches[0].NowPs()
		if h1 := watches[1].NowPs(); h1 < h {
			h = h1
		}
		return h
	}
	sk := &sink{eng: engs[1]}
	e := rt.Connect(0, 1)
	for i := 0; i < 2000; i++ {
		i := i
		engs[0].At(sim.Time(i)*100*sim.Nanosecond, func() {
			e.Deliver(engs[0].Now()+la+1, &netem.Packet{Seq: uint32(i)}, sk)
		})
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := int64(-1)
		for {
			select {
			case <-stop:
				return
			default:
			}
			h := horizon()
			if h < last {
				t.Errorf("horizon moved backwards: %d after %d", h, last)
				return
			}
			last = h
		}
	}()
	until := 400 * sim.Microsecond
	rt.Run(until)
	close(stop)
	wg.Wait()
	if got := horizon(); got != int64(until) {
		t.Fatalf("final horizon %d != until %d", got, int64(until))
	}
	if watches[0].Events() == 0 {
		t.Fatal("no events processed")
	}
	if len(sk.log) != 2000 {
		t.Fatalf("delivered %d of 2000", len(sk.log))
	}
}

// TestPanicPropagation: a panic inside one shard's window must tear the
// round protocol down on every shard (no deadlock on the hand-off
// channels) and re-raise from Run with the worker's message.
func TestPanicPropagation(t *testing.T) {
	rt, engs := newRuntime(t, 3)
	sk := &sink{eng: engs[1]}
	e := rt.Connect(0, 1)
	rt.Connect(1, 2)
	rt.Connect(2, 0)
	// Keep traffic flowing so the healthy shards are mid-protocol when
	// shard 2 dies.
	for i := 0; i < 100; i++ {
		i := i
		engs[0].At(sim.Time(i)*sim.Microsecond, func() {
			e.Deliver(engs[0].Now()+la+1, &netem.Packet{Seq: uint32(i)}, sk)
		})
	}
	engs[2].At(35*sim.Microsecond, func() { panic("boom in shard 2") })
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Run did not re-panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "boom in shard 2") {
			t.Fatalf("panic lost the worker message: %v", r)
		}
	}()
	rt.Run(200 * sim.Microsecond)
}

// TestCausalityPanic: delivering an item inside the lookahead window —
// an arrival the destination shard may already have simulated past —
// must be caught by the injection guard, not silently reordered.
func TestCausalityPanic(t *testing.T) {
	rt, engs := newRuntime(t, 2)
	sk := &sink{eng: engs[1]}
	e := rt.Connect(0, 1)
	engs[0].At(sim.Microsecond, func() {
		// Claimed arrival barely after send: violates at > send + la.
		e.Deliver(engs[0].Now()+sim.Nanosecond, &netem.Packet{}, sk)
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no causality panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "causality") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	rt.Run(100 * sim.Microsecond)
}

// TestDegenerateRuns: a zero-length run and an edgeless single shard
// must both terminate with their engines at `until`.
func TestDegenerateRuns(t *testing.T) {
	rt, zero := newRuntime(t, 2)
	rt.Connect(0, 1)
	rt.Run(0)
	if got := zero[1].Now(); got != 0 {
		t.Fatalf("zero-run clock %v", got)
	}

	solo, engs := newRuntime(t, 1)
	fired := false
	engs[0].At(sim.Microsecond, func() { fired = true })
	solo.Run(5 * sim.Microsecond)
	if !fired || engs[0].Now() != 5*sim.Microsecond {
		t.Fatalf("single-shard run: fired=%v clock=%v", fired, engs[0].Now())
	}
}

// bouncer sends every packet it receives straight back across the cut,
// one lookahead later, so every round is busy on both edges.
type bouncer struct {
	eng  *sim.Engine
	out  *Edge
	peer netem.Node
	hits int
}

func (b *bouncer) NodeID() netem.NodeID { return 0 }
func (b *bouncer) Receive(pkt *netem.Packet) {
	b.hits++
	b.out.Deliver(b.eng.Now()+la+sim.Nanosecond, pkt, b.peer)
}

// TestHandoffRecyclesBatches: a two-shard ping-pong allocates for its
// setup and its high-water marks, not per round — the hand-off batches
// go back to their edge once merged. Ten times the busy rounds may cost
// only a handful more heap objects.
func TestHandoffRecyclesBatches(t *testing.T) {
	pingPong := func(rounds int) (mallocs uint64, hits int) {
		rt, engs := newRuntime(t, 2)
		a := &bouncer{eng: engs[0], out: rt.Connect(0, 1)}
		b := &bouncer{eng: engs[1], out: rt.Connect(1, 0), peer: a}
		a.peer = b
		pkts := make([]netem.Packet, 8)
		for i := range pkts {
			pkt := &pkts[i]
			engs[0].At(sim.Time(i)*sim.Nanosecond, func() { a.Receive(pkt) })
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rt.Run(sim.Time(rounds) * la)
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, a.hits + b.hits
	}
	short, shortHits := pingPong(200)
	long, longHits := pingPong(2000)
	t.Logf("%d heap objects over 200 rounds, %d over 2000", short, long)
	if longHits < 9*shortHits {
		t.Fatalf("ping-pong not busy every round: %d bounces in 200 rounds, %d in 2000", shortHits, longHits)
	}
	if long > short+32 {
		t.Fatalf("heap objects grow with rounds: %d over 200 rounds, %d over 2000", short, long)
	}
}

// TestUnsentFinalBatch: deliveries whose arrival falls past `until`
// stay pending or unsent — exactly like events left in a single
// engine's heap at cutoff — without wedging the final rounds.
func TestUnsentFinalBatch(t *testing.T) {
	rt, engs := newRuntime(t, 2)
	sk := &sink{eng: engs[1]}
	e := rt.Connect(0, 1)
	until := 50 * sim.Microsecond
	engs[0].At(until-sim.Nanosecond, func() {
		e.Deliver(engs[0].Now()+la+1, &netem.Packet{Flow: 7}, sk)
	})
	rt.Run(until)
	if len(sk.log) != 0 {
		t.Fatalf("arrival past until was delivered: %+v", sk.log)
	}
}
