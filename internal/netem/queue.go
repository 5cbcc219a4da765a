package netem

import (
	"flexpass/internal/sim"
	"flexpass/internal/units"
)

// QueueConfig describes one egress queue of a port.
type QueueConfig struct {
	// Name labels the queue in stats output ("Q0", "Q1", ...).
	Name string

	// Band is the strict-priority band: band 0 is always served before band
	// 1, and so on. Queues in the same band share it via DWRR.
	Band int

	// Weight is the DWRR weight within the band. Zero means 1.
	Weight float64

	// ECNThreshold marks CE on ECN-capable packets when the queue's byte
	// occupancy after enqueue exceeds it (DCTCP-style instantaneous
	// threshold marking: the paper's K, which is RED with min = max).
	// Zero disables marking.
	ECNThreshold units.ByteSize

	// RedDropThreshold drops incoming Red packets once the queue's
	// red-colored byte occupancy would exceed it (color-aware selective
	// dropping). Zero disables selective dropping.
	RedDropThreshold units.ByteSize

	// CapBytes is a hard private cap on the queue occupancy. When zero the
	// queue draws from the port's shared buffer under the dynamic
	// threshold. Credit queues use a small private cap (<1KB in the paper).
	CapBytes units.ByteSize

	// RateLimit paces dequeues from this queue (token-bucket at exactly
	// this rate with one-packet granularity). Zero means unlimited. Used
	// for the credit queue.
	RateLimit units.Rate
}

// QueueStats accumulates per-queue counters.
type QueueStats struct {
	Enqueued     int64 // packets accepted
	EnqueuedB    int64 // bytes accepted
	Dropped      int64 // all drops
	DroppedRed   int64 // drops due to the red threshold
	DroppedOver  int64 // drops due to buffer exhaustion / cap / dynamic threshold
	Marked       int64 // CE marks applied
	MaxOccupancy int64 // high-water mark, bytes
	MaxRed       int64 // high-water mark of red-colored bytes
}

// queue is a FIFO with byte accounting, CE marking, and selective dropping.
type queue struct {
	cfg   QueueConfig
	idx   int // position within the owning port (for hop observers)
	pkts  fifo
	bytes int64 // current occupancy in bytes
	redB  int64 // bytes of Red packets currently queued

	deficit int64 // DWRR deficit counter
	quantum int64

	nextEligible sim.Time // rate limiter: earliest next dequeue instant

	stats QueueStats
}

// initQueue sets up q, held by value in its port, as queue idx.
func initQueue(q *queue, idx int, cfg QueueConfig) {
	w := cfg.Weight
	if w <= 0 {
		w = 1
	}
	// Quantum proportional to weight; the base quantum is one MTU so that
	// a weight-1 queue can always send a full frame per round.
	*q = queue{cfg: cfg, idx: idx, quantum: max(64, int64(w*1538))}
}

func (q *queue) empty() bool { return q.pkts.empty() }

func (q *queue) push(p *Packet) {
	q.pkts.push(p)
	q.bytes += int64(p.Size)
	if p.Color == Red {
		q.redB += int64(p.Size)
	}
	q.stats.Enqueued++
	q.stats.EnqueuedB += int64(p.Size)
	if q.bytes > q.stats.MaxOccupancy {
		q.stats.MaxOccupancy = q.bytes
	}
	if q.redB > q.stats.MaxRed {
		q.stats.MaxRed = q.redB
	}
}

func (q *queue) pop() *Packet {
	p := q.pkts.pop()
	q.bytes -= int64(p.Size)
	if p.Color == Red {
		q.redB -= int64(p.Size)
	}
	return p
}
