package forensics

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"flexpass/internal/netem"
	"flexpass/internal/sim"
	"flexpass/internal/trace"
	"flexpass/internal/transport"
	"flexpass/internal/units"
)

// sink swallows delivered packets.
type sink struct{ id netem.NodeID }

func (s *sink) NodeID() netem.NodeID  { return s.id }
func (s *sink) Receive(*netem.Packet) {}

func testPort(eng *sim.Engine, cap units.ByteSize) *netem.Port {
	cfg := netem.PortConfig{Queues: []netem.QueueConfig{{Name: "Q0", CapBytes: cap}}}
	p := netem.NewPort(eng, "tor0-up", 10*units.Gbps, 0, cfg, nil)
	p.Connect(&sink{id: 9})
	return p
}

func TestRecorderCapturesHops(t *testing.T) {
	eng := sim.NewEngine(1)
	rec := NewRecorder(nil)
	p := testPort(eng, 0)
	p.SetHopObserver(rec)
	for i := 0; i < 3; i++ {
		p.Send(&netem.Packet{Flow: 7, Seq: uint32(i), Size: 1250})
	}
	eng.Run(sim.Second)

	hops := rec.Hops(7)
	if len(hops) != 6 { // enq+deq per packet
		t.Fatalf("got %d hop records, want 6: %+v", len(hops), hops)
	}
	var enq, deq int
	for _, h := range hops {
		switch h.Event {
		case "enq":
			enq++
			if h.QueueBytes == 0 {
				t.Fatalf("enqueue record missing queue occupancy: %+v", h)
			}
		case "deq":
			deq++
			if h.TxPs != int64(sim.Microsecond) { // 1250B at 10Gbps
				t.Fatalf("tx time = %v, want 1us", sim.Time(h.TxPs))
			}
		}
		if h.Port != "tor0-up" || h.Queue != 0 {
			t.Fatalf("wrong hop identity: %+v", h)
		}
	}
	if enq != 3 || deq != 3 {
		t.Fatalf("enq=%d deq=%d, want 3/3", enq, deq)
	}
	// Packets 2 and 3 queued behind serialization: their waits are 1us, 2us.
	var waits []sim.Time
	for _, h := range hops {
		if h.Event == "deq" {
			waits = append(waits, sim.Time(h.WaitPs))
		}
	}
	if waits[0] != 0 || waits[1] != sim.Microsecond || waits[2] != 2*sim.Microsecond {
		t.Fatalf("queueing waits = %v, want [0 1us 2us]", waits)
	}
	if got := rec.Flows(); len(got) != 1 || got[0] != 7 {
		t.Fatalf("Flows() = %v", got)
	}
}

func TestRecorderDropRecords(t *testing.T) {
	eng := sim.NewEngine(1)
	rec := NewRecorder(nil)
	p := testPort(eng, 2500) // room for two packets
	p.SetHopObserver(rec)
	for i := 0; i < 5; i++ {
		p.Send(&netem.Packet{Flow: 1, Seq: uint32(i), Size: 1250})
	}
	eng.Run(sim.Second)

	var drops int
	for _, h := range rec.Hops(1) {
		if h.Event == "drop" {
			drops++
			if h.Reason != netem.DropPrivateCap.String() {
				t.Fatalf("drop reason = %v, want private-cap", h.Reason)
			}
		}
	}
	// One packet serializes immediately, two fit in the 2500B queue.
	if drops != 2 {
		t.Fatalf("recorded %d drops, want 2", drops)
	}
}

func TestRecorderCapsAndFilter(t *testing.T) {
	eng := sim.NewEngine(1)
	rec := NewRecorder(&Options{HopCap: 4, MaxFlows: 1, Flows: []uint64{1, 2}})
	p := testPort(eng, 0)
	p.SetHopObserver(rec)
	for i := 0; i < 8; i++ {
		p.Send(&netem.Packet{Flow: 1, Seq: uint32(i), Size: 125})
	}
	p.Send(&netem.Packet{Flow: 2, Size: 125}) // filtered in, but over MaxFlows
	p.Send(&netem.Packet{Flow: 3, Size: 125}) // filtered out
	eng.Run(sim.Second)

	hops := rec.Hops(1)
	if len(hops) != 4 {
		t.Fatalf("ring kept %d records, want 4", len(hops))
	}
	// The ring keeps the newest records in chronological order.
	for i := 1; i < len(hops); i++ {
		if hops[i].AtPs < hops[i-1].AtPs {
			t.Fatalf("records out of order: %+v", hops)
		}
	}
	if hops[len(hops)-1].Seq != 7 {
		t.Fatalf("newest record is seq %d, want 7", hops[len(hops)-1].Seq)
	}
	if rec.HopsDropped(1) != 12 { // 16 events, 4 kept
		t.Fatalf("HopsDropped = %d, want 12", rec.HopsDropped(1))
	}
	if rec.Hops(2) != nil || rec.Hops(3) != nil {
		t.Fatal("flow cap / filter leaked records")
	}
	if rec.Skipped() == 0 {
		t.Fatal("flow-cap skips not counted")
	}
}

func TestRecorderNilSafety(t *testing.T) {
	var r *Recorder
	r.HopEnqueue(0, nil, 0, &netem.Packet{}, 0)
	r.HopDequeue(0, nil, 0, &netem.Packet{}, 0, 0)
	r.HopDrop(0, nil, 0, &netem.Packet{}, netem.DropFault)
	if r.Flows() != nil || r.Hops(1) != nil || r.HopsDropped(1) != 0 || r.Skipped() != 0 {
		t.Fatal("nil recorder accessors not empty")
	}
}

func TestAuditorEmissionAndCap(t *testing.T) {
	eng := sim.NewEngine(1)
	a := NewAuditor(eng, sim.Millisecond, 2)
	a.Add(Check{Name: "always", Fn: func(now sim.Time, emit func(string, uint64, string)) {
		emit("e", 5, "boom")
	}})
	a.Start()
	eng.Run(10 * sim.Millisecond)

	vs := a.Violations()
	if len(vs) != 2 {
		t.Fatalf("retained %d violations, want cap 2", len(vs))
	}
	if a.Dropped() == 0 {
		t.Fatal("over-cap findings not counted")
	}
	v := vs[0]
	if v.Auditor != "always" || v.Entity != "e" || v.Flow != 5 || v.AtPs == 0 {
		t.Fatalf("violation fields wrong: %+v", v)
	}
	if s := v.String(); !strings.Contains(s, "always") || !strings.Contains(s, "boom") {
		t.Fatalf("String() = %q", s)
	}
}

// TestAuditorTickAllocatesNothing: a tick whose checks find nothing
// allocates nothing — emit is bound once per auditor, not once per check
// per tick.
func TestAuditorTickAllocatesNothing(t *testing.T) {
	eng := sim.NewEngine(1)
	sw := netem.NewSwitch(eng, 0, "sw0", netem.NewSharedBuffer(100*units.KB, 0.25))
	sw.AddPort(testPort(eng, 0))
	flows := []*transport.Flow{{ID: 1, Size: 1000}}
	a := NewAuditor(eng, sim.Millisecond, 0)
	a.Add(CreditConservation(func() int64 { return 2 }, func() int64 { return 1 }, func() int64 { return 1 }))
	a.Add(BufferAccounting(sw))
	a.Add(ProgressWatchdog(func() []*transport.Flow { return flows }, sim.Second))
	a.tick() // the watchdog's first sight of a flow is state, not per tick
	if n := testing.AllocsPerRun(100, a.tick); n != 0 {
		t.Fatalf("a clean audit tick allocated %v objects, want 0", n)
	}
	if vs := a.Violations(); len(vs) != 0 {
		t.Fatalf("clean state flagged: %v", vs)
	}
}

func TestCreditConservationCheck(t *testing.T) {
	issued, consumed, dropped := int64(10), int64(6), int64(4)
	c := CreditConservation(
		func() int64 { return issued },
		func() int64 { return consumed },
		func() int64 { return dropped })
	var got []string
	emit := func(_ string, _ uint64, d string) { got = append(got, d) }
	c.Fn(0, emit)
	if len(got) != 0 {
		t.Fatalf("balanced books flagged: %v", got)
	}
	issued = 9 // one credit unaccounted for
	c.Fn(0, emit)
	if len(got) != 1 || !strings.Contains(got[0], "exceed issued (9) by 1") {
		t.Fatalf("imbalance not flagged: %v", got)
	}
}

func TestWorstTimelines(t *testing.T) {
	eng := sim.NewEngine(1)
	rec := NewRecorder(nil)
	p := testPort(eng, 0)
	p.SetHopObserver(rec)
	for fl := uint64(1); fl <= 3; fl++ {
		p.Send(&netem.Packet{Flow: fl, Size: 1250})
	}
	ring := trace.NewRing(eng, 16)
	ring.Add(trace.FlowStart, 2, 5000, "test")
	eng.Run(sim.Second)

	mk := func(id uint64, done bool) *transport.Flow {
		f := &transport.Flow{ID: id, Size: 5000, Transport: "test"}
		if done {
			f.Complete(sim.Millisecond)
		}
		return f
	}
	flows := []*transport.Flow{mk(1, true), mk(2, true), mk(3, false)}
	score := map[uint64]float64{1: 2, 2: 10, 3: 1}
	slowdown := func(f *transport.Flow) float64 { return score[f.ID] }

	tls := WorstTimelines(rec, ring, flows, slowdown, &Options{Timelines: 2, Flows: []uint64{1}})
	if len(tls) != 3 {
		t.Fatalf("got %d timelines, want 2 worst + 1 must", len(tls))
	}
	// Incomplete flow 3 ranks worst, then flow 2; flow 1 rides along via must.
	if tls[0].Flow != 3 || tls[1].Flow != 2 || tls[2].Flow != 1 {
		t.Fatalf("timeline order = [%d %d %d], want [3 2 1]", tls[0].Flow, tls[1].Flow, tls[2].Flow)
	}
	if tls[0].FctPs != -1 || tls[0].Slowdown != 0 {
		t.Fatalf("incomplete flow mis-rendered: %+v", tls[0])
	}
	if tls[1].Slowdown != 10 {
		t.Fatalf("flow 2 slowdown = %v, want 10", tls[1].Slowdown)
	}
	if len(tls[1].Events) != 1 || tls[1].Events[0].Kind != trace.FlowStart.String() {
		t.Fatalf("flow 2 lifecycle events = %+v", tls[1].Events)
	}
	if len(tls[1].Hops) == 0 || len(tls[1].Delays) != 1 || tls[1].Delays[0].Dequeues != 1 {
		t.Fatalf("flow 2 hop data wrong: hops=%d perhop=%+v", len(tls[1].Hops), tls[1].Delays)
	}
}

// TestRecorderTimeline: a timeline carries its flow's identity, every
// hop record in artifact form, the per-port delay summary and the flow's
// lifecycle events.
func TestRecorderTimeline(t *testing.T) {
	eng := sim.NewEngine(1)
	rec := NewRecorder(nil)
	p := testPort(eng, 2500)
	p.SetHopObserver(rec)
	for i := 0; i < 5; i++ {
		p.Send(&netem.Packet{Flow: 1, Seq: uint32(i), Size: 1250, Color: netem.Red})
	}
	ring := trace.NewRing(eng, 16)
	ring.Add(trace.Retransmit, 1, 3, "")
	ring.Add(trace.Retransmit, 2, 3, "")
	eng.Run(sim.Second)

	fl := &transport.Flow{ID: 1, Size: 6250, Transport: "flexpass"}
	fl.Complete(10 * sim.Microsecond)
	td := rec.Timeline(fl, ring)
	if td.Flow != 1 || td.Transport != "flexpass" || td.Size != 6250 || td.FctPs != int64(10*sim.Microsecond) {
		t.Fatalf("timeline identity wrong: %+v", td)
	}
	var sawDeq, sawDrop bool
	for _, h := range td.Hops {
		if h.Color != "red" || h.Port != "tor0-up" {
			t.Fatalf("hop identity not carried: %+v", h)
		}
		switch h.Event {
		case "deq":
			sawDeq = true
			if h.TxPs == 0 {
				t.Fatalf("deq without tx time: %+v", h)
			}
		case "drop":
			sawDrop = true
			if h.Reason != "private-cap" {
				t.Fatalf("drop reason = %q", h.Reason)
			}
		}
	}
	if !sawDeq || !sawDrop {
		t.Fatalf("missing hop events: deq=%v drop=%v", sawDeq, sawDrop)
	}
	if len(td.Delays) != 1 || td.Delays[0].Port != "tor0-up" || td.Delays[0].Drops != 2 || td.Delays[0].Dequeues != 3 {
		t.Fatalf("per-hop delays wrong: %+v", td.Delays)
	}
	if len(td.Events) != 1 || td.Events[0].Kind != "retx" || td.Events[0].Flow != 1 {
		t.Fatalf("events wrong: %+v", td.Events)
	}
}

// TestRecorderDoneKeepsExportedTimelines feeds the same hop events to a
// recorder that hears of completions and to one that never does, over
// random schedules — tied scores, packets that arrive after their flow
// completed, flows that never complete, a flow cap that bites — and
// wants the same exported timelines, flow order and skip count from
// both, while the first gives up the logs that cannot be exported.
func TestRecorderDoneKeepsExportedTimelines(t *testing.T) {
	p := testPort(sim.NewEngine(1), 0)
	var gaveUp, reused int
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		opts := &Options{Timelines: 1 + rng.Intn(4), MaxFlows: 20 + rng.Intn(40), HopCap: 4 + rng.Intn(8)}
		told, ref := NewRecorder(opts), NewRecorder(opts)
		flows := make([]*transport.Flow, 40)
		score := map[uint64]float64{}
		for i := range flows {
			flows[i] = &transport.Flow{ID: uint64(i + 1), Size: 5000, Start: sim.Time(i / 3), Transport: "test"}
			score[flows[i].ID] = float64(rng.Intn(6))
		}
		slowdown := func(f *transport.Flow) float64 { return score[f.ID] }
		for step := 0; step < 4000; step++ {
			fl := flows[rng.Intn(1+step/50)%len(flows)] // flows join over time
			if rng.Intn(50) == 0 && !fl.Completed {
				fl.Complete(sim.Time(step))
				told.Done(fl.ID, slowdown(fl))
				continue
			}
			pkt := &netem.Packet{Flow: fl.ID, Seq: uint32(step)}
			told.HopEnqueue(sim.Time(step), p, 0, pkt, 1)
			ref.HopEnqueue(sim.Time(step), p, 0, pkt, 1)
		}
		// All but a few stragglers finish, so completed flows are exported too.
		for _, i := range rng.Perm(len(flows))[rng.Intn(opts.Timelines+1):] {
			if fl := flows[i]; !fl.Completed {
				fl.Complete(4000)
				told.Done(fl.ID, slowdown(fl))
			}
		}
		got := WorstTimelines(told, nil, flows, slowdown, opts)
		want := WorstTimelines(ref, nil, flows, slowdown, opts)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: timelines differ once the recorder hears of completions", seed)
		}
		if !reflect.DeepEqual(told.Flows(), ref.Flows()) || told.Skipped() != ref.Skipped() {
			t.Fatalf("seed %d: recorded flows changed: %v (skipped %d), want %v (skipped %d)",
				seed, told.Flows(), told.Skipped(), ref.Flows(), ref.Skipped())
		}
		for id, i := range told.flows {
			if i == released {
				gaveUp++
				if fl := flows[id-1]; !fl.Completed {
					t.Fatalf("seed %d: incomplete flow %d lost its log", seed, id)
				}
			}
		}
		reused += len(ref.blocks) - len(told.blocks)
	}
	if gaveUp == 0 || reused == 0 {
		t.Fatalf("released %d logs and reused %d: the recorder kept everything", gaveUp, reused)
	}

	// Under Options.Flows every recorded flow is exported: none is released.
	only := NewRecorder(&Options{Flows: []uint64{1, 2}, Timelines: 1})
	for fl := uint64(1); fl <= 2; fl++ {
		only.HopEnqueue(0, p, 0, &netem.Packet{Flow: fl}, 1)
		only.Done(fl, float64(3-fl))
	}
	if len(only.Hops(1)) != 1 || len(only.Hops(2)) != 1 {
		t.Fatalf("a flow named in Options.Flows lost its log: %d and %d records", len(only.Hops(1)), len(only.Hops(2)))
	}
}
