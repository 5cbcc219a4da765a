package netem

import (
	"fmt"

	"flexpass/internal/sim"
	"flexpass/internal/units"
)

// SharedBuffer is a switch-wide packet buffer pool managed with the
// Choudhury–Hahne dynamic threshold: a queue may accept a packet only while
// its occupancy stays below Alpha × (free buffer). All ports of a switch
// share one SharedBuffer.
type SharedBuffer struct {
	Total units.ByteSize
	Alpha float64
	used  int64
}

// NewSharedBuffer returns a pool of the given size with dynamic threshold
// factor alpha (the paper uses 1/4).
func NewSharedBuffer(total units.ByteSize, alpha float64) *SharedBuffer {
	return &SharedBuffer{Total: total, Alpha: alpha}
}

// Used reports the bytes currently held.
func (s *SharedBuffer) Used() int64 { return s.used }

// admits reports whether a queue currently holding qbytes may accept size
// more bytes.
func (s *SharedBuffer) admits(qbytes, size int64) bool {
	if s.used+size > int64(s.Total) {
		return false
	}
	free := int64(s.Total) - s.used
	return float64(qbytes+size) <= s.Alpha*float64(free)
}

// PortStats accumulates per-port transmit counters.
type PortStats struct {
	TxPackets int64
	TxBytes   int64
}

// PortConfig describes an egress port's queues and classification.
type PortConfig struct {
	// Queues lists the queue configurations, indexed by queue number.
	Queues []QueueConfig
	// Classify maps a packet to a queue index. Nil means "queue = Class",
	// clamped to the last queue.
	Classify func(*Packet) int
}

// Port is a directed egress: a set of queues, a scheduler (strict priority
// across bands, DWRR within a band, optional per-queue pacing), a
// serializer at the line rate, and a propagation delay to the peer node.
type Port struct {
	eng   *sim.Engine
	name  string
	rate  units.Rate
	prop  sim.Time
	peer  Node
	owner NodeID
	link  uint32     // number in the Network, 0 outside one; see Rank
	rng   sim.Stream // fault-loss draws, keyed by link

	queues   []queue // by value, carved with the port (see slab)
	bands    []band
	classify func(*Packet) int
	shared   *SharedBuffer

	// Serializer state. txEnd is where the frame in flight finishes: the
	// dispatch position its tx-done event holds, reserved in kick but only
	// materialised (txArmed) once something is queued behind the frame.
	// The port is busy until txEnd has passed; with nothing queued the
	// event would find nothing to send, so an uncongested hop costs one
	// event (the delivery), in exactly the eager schedule's order.
	txEnd   sim.Slot
	txArmed bool
	wakeAt  sim.Time // earliest pending eligibility wake; 0 when none

	// Delivery pipeline: arrivals at the peer are FIFO with a constant
	// propagation offset, so one scheduled event per port suffices
	// instead of one per in-flight packet (keeps the event heap small).
	// Each frame on the wire carries its arrival time in Packet.at.
	wire fifo

	txDoneFn  func()
	deliverFn func()
	wakeFn    func() // pre-bound wake: one closure per port, not per pacing stall

	pool *PacketPool // packet free list (nil outside a Network); drops recycle through it

	// Profiling attribution for the events this port schedules (pure
	// metadata — never affects event order).
	compTx      sim.Component // serialization-done events
	compDeliver sim.Component // propagation / peer-delivery events
	compPacing  sim.Component // rate-limit eligibility wakes

	// Fault-injection state (see faults.go). effRate is the current
	// serialization rate: rate unless degraded by SetRateFraction.
	down       bool
	geOn       bool
	geBad      bool
	effRate    units.Rate
	ge         GilbertElliott
	creditLoss float64
	faults     FaultStats

	hop HopObserver // optional read-only packet-event observer

	// remote, when set, replaces the local propagation pipeline: packets
	// leaving the serializer are handed to it (with their arrival time)
	// instead of being scheduled on this engine — the cut point sharded
	// runs use for wires whose peer lives on another shard's engine.
	remote func(at sim.Time, pkt *Packet)

	stats PortStats
}

// band is one strict-priority band: its queues, in queue order, and the
// DWRR pointer among them.
type band struct {
	qs []*queue
	rr int
}

// NewPort builds an egress port. shared may be nil for ports with only
// privately-capped queues; queues with CapBytes==0 then have unlimited
// buffer (useful for host NICs). The port, its queues and bands are
// allocated for it alone; a fabric carves its ports from a per-engine
// slab instead (Network.NewPort), through the same code.
func NewPort(eng *sim.Engine, name string, rate units.Rate, prop sim.Time, cfg PortConfig, shared *SharedBuffer) *Port {
	var s slab
	return s.port(eng, name, rate, prop, cfg, shared)
}

// Rank returns the rank of this port's deliveries (sim.Engine.AtRank): 1 +
// its link number, the same at every shard count.
func (p *Port) Rank() uint32 { return 1 + p.link }

// deliverAt queues a packet for arrival at the peer at time t.
func (p *Port) deliverAt(t sim.Time, pkt *Packet) {
	if p.remote != nil {
		p.remote(t, pkt)
		return
	}
	pkt.at = t
	p.wire.push(pkt)
	if p.wire.peek() == pkt {
		prev := p.eng.SetComponent(p.compDeliver)
		p.eng.AtRank(t, p.Rank(), p.deliverFn)
		p.eng.SetComponent(prev)
	}
}

// deliverHead delivers the head packet and schedules the next arrival.
func (p *Port) deliverHead() {
	p.peer.Receive(p.wire.pop())
	if next := p.wire.peek(); next != nil {
		prev := p.eng.SetComponent(p.compDeliver)
		p.eng.AtRank(next.at, p.Rank(), p.deliverFn)
		p.eng.SetComponent(prev)
	}
}

// Connect attaches the receiving peer. Must be called before any Send.
func (p *Port) Connect(peer Node) { p.peer = peer }

// SetRemote diverts this port's propagation stage to fn: serialized
// packets are handed to fn with their arrival time instead of being
// delivered to the peer on this engine (at Rank). Sharded runs install the
// cross-shard edge hand-off here for wires that cross a partition cut;
// nil restores local delivery. The serializer (txDone, pacing wakes)
// stays on this port's own engine either way.
func (p *Port) SetRemote(fn func(at sim.Time, pkt *Packet)) { p.remote = fn }

// Engine returns the engine this port schedules on (the owning node's
// shard engine in sharded runs).
func (p *Port) Engine() *sim.Engine { return p.eng }

// Prop returns the link's one-way propagation delay (the lookahead
// contribution of a cross-shard wire).
func (p *Port) Prop() sim.Time { return p.prop }

// Peer returns the node this port delivers to (nil before Connect). The
// fault layer uses it to resolve "the egress toward host X" by topology
// rather than by port-registration index.
func (p *Port) Peer() Node { return p.peer }

// SetOwner records the node the port belongs to (for diagnostics).
func (p *Port) SetOwner(id NodeID) { p.owner = id }

// Rate returns the port's line rate.
func (p *Port) Rate() units.Rate { return p.rate }

// Name returns the port's label.
func (p *Port) Name() string { return p.name }

// Stats returns a copy of the port counters.
func (p *Port) Stats() PortStats { return p.stats }

// QueueStats returns a copy of queue i's counters.
func (p *Port) QueueStats(i int) QueueStats { return p.queues[i].stats }

// QueueConfig returns queue i's configuration.
func (p *Port) QueueConfig(i int) QueueConfig { return p.queues[i].cfg }

// QueueBytes returns queue i's instantaneous occupancy in bytes, and the
// portion of it that is Red-colored.
func (p *Port) QueueBytes(i int) (total, red int64) {
	return p.queues[i].bytes, p.queues[i].redB
}

// NumQueues returns how many queues the port has.
func (p *Port) NumQueues() int { return len(p.queues) }

// Send classifies, admits, and enqueues pkt, then kicks the scheduler.
// Drops are counted in the queue stats; the packet is silently discarded.
func (p *Port) Send(pkt *Packet) {
	if p.injectFault(pkt) {
		return
	}
	qi := int(pkt.Class)
	if p.classify != nil {
		qi = p.classify(pkt)
	}
	q := &p.queues[max(0, min(qi, len(p.queues)-1))]
	sz := int64(pkt.Size)

	// Color-aware selective dropping (paper §4.1): red packets are dropped
	// once the queue's red occupancy would exceed the threshold; green
	// packets are only subject to buffer admission.
	if q.cfg.RedDropThreshold > 0 && pkt.Color == Red && q.redB+sz > int64(q.cfg.RedDropThreshold) {
		p.drop(q, pkt, DropRedThreshold)
		return
	}

	// Buffer admission: private cap, or shared dynamic threshold.
	if q.cfg.CapBytes > 0 {
		if q.bytes+sz > int64(q.cfg.CapBytes) {
			p.drop(q, pkt, DropPrivateCap)
			return
		}
	} else if p.shared != nil {
		if !p.shared.admits(q.bytes, sz) {
			p.drop(q, pkt, DropSharedBuffer)
			return
		}
		p.shared.used += sz
	}

	// ECN marking on ECN-capable packets at the instantaneous threshold.
	if pkt.ECNCapable && q.cfg.ECNThreshold > 0 && q.bytes+sz > int64(q.cfg.ECNThreshold) {
		pkt.CE = true
		q.stats.Marked++
	}

	pkt.at = p.eng.Now()
	q.push(pkt)
	if p.hop != nil {
		p.hop.HopEnqueue(pkt.at, p, q.idx, pkt, q.bytes)
	}
	p.kick()
}

// drop counts, observes and recycles a frame queue q refused.
func (p *Port) drop(q *queue, pkt *Packet, reason DropReason) {
	q.stats.Dropped++
	if reason == DropRedThreshold {
		q.stats.DroppedRed++
	} else {
		q.stats.DroppedOver++
	}
	if p.hop != nil {
		p.hop.HopDrop(p.eng.Now(), p, q.idx, pkt, reason)
	}
	p.pool.put(pkt)
}

// kick starts a transmission if the port is up, idle, and a packet is
// eligible. While administratively down the serializer stays paused;
// SetDown(false) re-kicks it. Entered mid-frame, it makes sure tx-done
// will fire to serve whatever prompted the kick.
func (p *Port) kick() {
	if p.down {
		return
	}
	if !p.eng.Passed(p.txEnd) {
		if !p.txArmed {
			p.armTxDone()
		}
		return
	}
	pkt, q, wait := p.selectNext()
	if pkt == nil {
		if wait > 0 && (p.wakeAt == 0 || wait < p.wakeAt || p.wakeAt <= p.eng.Now()) {
			p.wakeAt = wait
			prev := p.eng.SetComponent(p.compPacing)
			p.eng.At(wait, p.wakeFn)
			p.eng.SetComponent(prev)
		}
		return
	}
	if q.cfg.CapBytes == 0 && p.shared != nil {
		p.shared.used -= int64(pkt.Size)
	}
	if q.cfg.RateLimit > 0 {
		// Pace at exactly RateLimit with one-packet granularity.
		next := q.nextEligible
		if now := p.eng.Now(); next < now {
			next = now
		}
		q.nextEligible = next + q.cfg.RateLimit.TxTime(pkt.Size)
	}
	tx := p.effRate.TxTime(pkt.Size)
	if p.hop != nil {
		now := p.eng.Now()
		p.hop.HopDequeue(now, p, q.idx, pkt, now-pkt.at, tx)
	}
	p.stats.TxPackets++
	p.stats.TxBytes += int64(pkt.Size)
	p.txEnd = p.eng.Reserve(p.eng.Now() + tx)
	p.txArmed = false
	for i := range p.queues {
		if !p.queues[i].empty() {
			p.armTxDone()
			break
		}
	}
	p.deliverAt(p.eng.Now()+tx+p.prop, pkt)
}

// armTxDone materialises the tx-done event of the frame in flight.
func (p *Port) armTxDone() {
	p.txArmed = true
	prev := p.eng.SetComponent(p.compTx)
	p.eng.AtSlot(p.txEnd, p.txDoneFn)
	p.eng.SetComponent(prev)
}

// wake fires when a rate-limited queue becomes eligible again.
func (p *Port) wake() {
	if p.wakeAt <= p.eng.Now() {
		p.wakeAt = 0
	}
	p.kick()
}

// eligible reports whether q may dequeue right now.
func (p *Port) eligible(q *queue) bool {
	if q.empty() {
		return false
	}
	return q.cfg.RateLimit == 0 || q.nextEligible <= p.eng.Now()
}

// selectNext picks the next packet under strict-priority + DWRR + pacing.
// When nothing is eligible but some rate-limited queue holds data, it
// returns the earliest time a queue becomes eligible.
func (p *Port) selectNext() (*Packet, *queue, sim.Time) {
	var wait sim.Time
	for b := range p.bands {
		bd := &p.bands[b]
		anyEligible := false
		for _, q := range bd.qs {
			if q.empty() {
				continue
			}
			if p.eligible(q) {
				anyEligible = true
			} else if wait == 0 || q.nextEligible < wait {
				wait = q.nextEligible
			}
		}
		if !anyEligible {
			continue // rate-limited band waiting: serve lower bands meanwhile
		}
		if len(bd.qs) == 1 {
			q := bd.qs[0]
			return q.pop(), q, 0
		}
		// DWRR within the band. Queues accumulate one quantum per visit;
		// a queue keeps the pointer while its deficit affords its head.
		n := len(bd.qs)
		for pass := 0; pass < 1000*n; pass++ {
			q := bd.qs[bd.rr]
			if q.empty() {
				q.deficit = 0
				bd.rr = (bd.rr + 1) % n
				continue
			}
			if !p.eligible(q) {
				bd.rr = (bd.rr + 1) % n
				continue
			}
			head := q.pkts.peek()
			if q.deficit >= int64(head.Size) {
				q.deficit -= int64(head.Size)
				return q.pop(), q, 0
			}
			q.deficit += q.quantum
			bd.rr = (bd.rr + 1) % n
		}
		panic(fmt.Sprintf("netem: DWRR failed to converge on port %s band %d", p.name, b))
	}
	return nil, nil, wait
}
