// Package shard runs several sim.Engines in parallel under a
// conservative-lookahead synchronization protocol (the SimBricks/null
// message family), so one fabric can be partitioned across cores without
// changing its result.
//
// The fabric is cut only at wires with a fixed propagation delay. With
// L = min propagation delay over all cross-shard wires (the lookahead),
// a packet handed to a cross-shard wire at local time t arrives at the
// peer strictly after t+L (serialization time is always positive). Time
// is therefore divided into windows of length L and every shard runs the
// same round schedule: in round r it first receives exactly one batch
// per incoming edge (the batches its neighbors produced in round r-1 —
// an empty batch is the null message that lets the receiver advance),
// then executes its engine up to W_r = min((r+1)·L, until), then flushes
// one batch per outgoing edge. Any item generated in round r-1 has
// arrival time > r·L, so it can only be needed by round r or later:
// every shard always holds all remote input for the window it is about
// to run, and no shard ever waits on speculation or rollback.
//
// Determinism contract: the result does not depend on the shard count.
// Every entity draws from its own random stream (sim.Engine.Stream), and
// the order within an instant is the model's — local events by sequence,
// then arrivals by the rank of their link (sim.Engine.AtRank). Incoming
// items are sorted on that same (arrival time, rank) key and injected at
// their rank, so a cross-shard arrival takes the place the one-engine
// delivery takes. Entities on different shards never interact inside an
// instant (every cut wire has a positive delay), so each shard dispatches
// its own entities' events in the one-engine order, whatever the
// goroutine interleaving. harness.TestShardedGolden holds all ten schemes,
// clean and faulted, to one digest at shards 1, 2 and 4.
package shard

import (
	"cmp"
	"fmt"
	"runtime/debug"
	"slices"
	"sync"

	"flexpass/internal/netem"
	"flexpass/internal/sim"
)

// Item is one timestamped cross-shard delivery: pkt arrives at dst (a
// node owned by the destination shard) at time At, at its link's Rank.
type Item struct {
	At   sim.Time
	Rank uint32
	Pkt  *netem.Packet
	Dst  netem.Node
}

// Edge is the SPSC hand-off for one directed shard pair: the source
// shard's goroutine appends items during its window and flushes them as
// one batch per round; the destination shard's goroutine receives them
// at its next round boundary. Batches are recycled: once the receiver has
// merged a batch it clears it and hands it back on free, where the sender
// takes its next buffer. At most four are in circulation — one filling at
// the sender, two in ch, one being merged — so free never blocks and a
// run allocates batches only until their capacity reaches its busiest
// round. An empty round sends nil and keeps its buffer.
type Edge struct {
	ch   chan []Item
	free chan []Item
	buf  []Item
}

// DeliverRanked queues a cross-shard arrival at the given rank on this
// edge. It must be called from the source shard's goroutine (netem ports
// do, via Port.SetRemote, while their engine runs a window).
func (e *Edge) DeliverRanked(at sim.Time, rank uint32, pkt *netem.Packet, dst netem.Node) {
	e.buf = append(e.buf, Item{At: at, Rank: rank, Pkt: pkt, Dst: dst})
}

// Deliver queues an arrival at rank 0, for senders without links: the
// standing benchmark's hand-off measurement (bench/units.go).
func (e *Edge) Deliver(at sim.Time, pkt *netem.Packet, dst netem.Node) {
	e.DeliverRanked(at, 0, pkt, dst)
}

// Shard is one partition: an engine plus its incoming and outgoing
// edges. All scheduling into the engine before Run and all reads after
// Run happen from the coordinating goroutine; during Run only the
// shard's own goroutine touches it.
type Shard struct {
	id  int
	eng *sim.Engine
	rt  *Runtime
	in  []*Edge // in Connect order
	out []*Edge

	pending []Item // received items beyond the current horizon
	injQ    []Item // FIFO of items scheduled into the engine
	injHead int
	comp    sim.Component
}

// Runtime coordinates one sharded run.
type Runtime struct {
	shards    []*Shard
	lookahead sim.Time
	edges     map[[2]int]*Edge

	failed   chan struct{}
	failOnce sync.Once
	panicMsg string
}

// New builds a runtime over the given per-shard engines. lookahead must
// be positive and no larger than the minimum propagation delay of any
// edge later connected — the causality guard in inject panics if that is
// violated at run time.
func New(engs []*sim.Engine, lookahead sim.Time) *Runtime {
	if len(engs) == 0 {
		panic("shard: no engines")
	}
	if lookahead <= 0 {
		panic("shard: non-positive lookahead")
	}
	rt := &Runtime{
		lookahead: lookahead,
		edges:     make(map[[2]int]*Edge),
		failed:    make(chan struct{}),
	}
	for i, eng := range engs {
		s := &Shard{id: i, eng: eng, rt: rt, comp: eng.Component("shard/inject")}
		rt.shards = append(rt.shards, s)
	}
	return rt
}

// Connect returns the directed edge from shard `from` to shard `to`,
// creating it on first use. All wires between the same shard pair share
// one edge (their deliveries are already ordered by the source engine).
func (rt *Runtime) Connect(from, to int) *Edge {
	if from == to {
		panic("shard: self edge")
	}
	key := [2]int{from, to}
	if e := rt.edges[key]; e != nil {
		return e
	}
	// Capacity 2: one batch in flight plus one being produced, so a
	// fast sender runs a full window ahead before blocking.
	// free holds every buffer the edge can own (see Edge), so returning
	// one never blocks.
	e := &Edge{ch: make(chan []Item, 2), free: make(chan []Item, 4)}
	rt.edges[key] = e
	rt.shards[from].out = append(rt.shards[from].out, e)
	rt.shards[to].in = append(rt.shards[to].in, e)
	return e
}

// InFlight counts the frames between shards: flushed onto an edge but
// not yet received, received but not yet due, or scheduled into an engine
// but not yet delivered. Call it only while Run is not executing.
func (rt *Runtime) InFlight() int64 {
	var n int64
	for _, e := range rt.edges {
		n += int64(len(e.buf))
		for range len(e.ch) { // rotate each batch through, order kept
			batch := <-e.ch
			n += int64(len(batch))
			e.ch <- batch
		}
	}
	for _, s := range rt.shards {
		n += int64(len(s.pending) + len(s.injQ) - s.injHead)
	}
	return n
}

// fail records the first shard panic and releases every blocked peer.
func (rt *Runtime) fail(v any) {
	rt.failOnce.Do(func() {
		rt.panicMsg = fmt.Sprintf("shard: worker panic: %v\n%s", v, debug.Stack())
		close(rt.failed)
	})
}

// Run executes every shard concurrently up to and including `until`,
// then leaves each engine at now == until. A panic in any shard tears
// the round protocol down and is re-raised here with the worker stack.
func (rt *Runtime) Run(until sim.Time) {
	rounds := 0
	if until > 0 {
		rounds = int((until + rt.lookahead - 1) / rt.lookahead)
	}
	var wg sync.WaitGroup
	for _, s := range rt.shards {
		wg.Add(1)
		go func(s *Shard) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					rt.fail(r)
				}
			}()
			s.run(until, rounds)
		}(s)
	}
	wg.Wait()
	if rt.panicMsg != "" {
		panic(rt.panicMsg)
	}
}

// run is one shard's round loop. See the package comment for why
// receiving the round r-1 batches suffices to execute window r.
func (s *Shard) run(until sim.Time, rounds int) {
	for r := 0; r < rounds; r++ {
		if r > 0 {
			grew := false
			for _, e := range s.in {
				var batch []Item
				select {
				case batch = <-e.ch:
				case <-s.rt.failed:
					return
				}
				if len(batch) > 0 {
					s.pending = append(s.pending, batch...)
					grew = true
					clear(batch) // hold no *Packet while parked
					select {
					case e.free <- batch[:0]:
					default:
					}
				}
			}
			if grew {
				// The engine's own order: arrival time, then rank.
				slices.SortStableFunc(s.pending, func(a, b Item) int {
					return cmp.Or(cmp.Compare(a.At, b.At), cmp.Compare(a.Rank, b.Rank))
				})
			}
		}
		w := sim.Time(r+1) * s.rt.lookahead
		if w > until {
			w = until
		}
		s.inject(w)
		s.eng.Run(w)
		for _, e := range s.out {
			var batch []Item // an idle round sends nil and keeps its buffer
			if len(e.buf) > 0 {
				batch = e.buf
			}
			select {
			case e.ch <- batch:
			case <-s.rt.failed:
				return
			}
			// Refill only after the send: ch then holds at most two, so
			// a fresh buffer is the fourth at most.
			if batch != nil {
				select {
				case e.buf = <-e.free:
				default:
					e.buf = nil
				}
			}
		}
	}
	// Zero-round runs (until == 0) still dispatch what is due at 0.
	if rounds == 0 {
		s.eng.Run(until)
	}
}

// inject schedules every pending item with arrival ≤ w into the engine at
// its rank, in merge order. The engine dispatches in (time, rank, schedule)
// order, which is merge order, so a FIFO queue drained by the shard's own
// event (shardInject) reproduces it exactly with no per-item closure.
func (s *Shard) inject(w sim.Time) {
	n := 0
	for n < len(s.pending) && s.pending[n].At <= w {
		n++
	}
	if n == 0 {
		return
	}
	prev := s.eng.SetComponent(s.comp)
	for i := 0; i < n; i++ {
		it := s.pending[i]
		if it.At <= s.eng.Now() {
			panic(fmt.Sprintf("shard %d: causality violation: item for t=%v at now=%v (lookahead %v exceeds a cross-shard propagation delay)",
				s.id, it.At, s.eng.Now(), s.rt.lookahead))
		}
		s.injQ = append(s.injQ, it)
		s.eng.ScheduleRank(it.At, it.Rank, (*shardInject)(s))
	}
	s.eng.SetComponent(prev)
	rem := copy(s.pending, s.pending[n:])
	for i := rem; i < len(s.pending); i++ {
		s.pending[i] = Item{}
	}
	s.pending = s.pending[:rem]
}

// shardInject is a shard's injection event, the shard itself: it delivers
// the FIFO head into the destination node.
type shardInject Shard

func (k *shardInject) Fire() { (*Shard)(k).injectNext() }

// injectNext delivers the FIFO head into the destination node.
func (s *Shard) injectNext() {
	it := s.injQ[s.injHead]
	s.injQ[s.injHead] = Item{}
	s.injHead++
	if s.injHead == len(s.injQ) {
		s.injQ = s.injQ[:0]
		s.injHead = 0
	}
	it.Dst.Receive(it.Pkt)
}
