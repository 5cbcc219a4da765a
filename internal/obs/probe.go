package obs

import (
	"slices"

	"flexpass/internal/sim"
)

// Options configures the telemetry plane for one run. The zero value
// gets sensible defaults from each accessor.
type Options struct {
	// ProbeInterval is the sampling period (default 100us, the cadence
	// the paper's queue-occupancy timelines use).
	ProbeInterval sim.Time
	// SeriesCap bounds each time series to the most recent N samples
	// (default 8192); older samples are dropped from the front and
	// counted so exported series still carry their true start time.
	SeriesCap int
	// TraceCap, when positive, sizes the shared transport trace ring
	// that the harness attaches to every transport config.
	TraceCap int
}

// Interval returns the probe interval, defaulted.
func (o *Options) Interval() sim.Time {
	if o == nil || o.ProbeInterval <= 0 {
		return 100 * sim.Microsecond
	}
	return o.ProbeInterval
}

// Cap returns the per-series sample capacity, defaulted.
func (o *Options) Cap() int {
	if o == nil || o.SeriesCap <= 0 {
		return 8192
	}
	return o.SeriesCap
}

// Prober samples every registry source on a fixed engine-driven cadence.
// Its tick only reads state, so enabling it never changes simulation
// results — it just adds observer events to the heap.
//
// A tick writes on change. Each source has an open run — the value of
// its latest sample and how many ticks in a row it was read — in a flat
// array, so a source that reads the same as last tick costs one compare
// and one store. A change closes the open run into the series' chain of
// blocks (see runBlock), and Series builds the artifact form from the
// chains once, at the end.
type Prober struct {
	eng      *sim.Engine
	reg      *Registry
	interval sim.Time
	capacity int
	ticker   *sim.Ticker
	ticks    int64
	at       int64 // time of the latest tick, ps

	// Parallel to reg.sources at tick time.
	series []SeriesData // names and the time of the oldest sample held
	last   []int64      // previous reading of each cumulative source
	open   []valueRun   // each series' newest run, not yet in its chain
	chains []chain      // each series' closed runs

	// Blocks are carved from chunks that grow geometrically, and a new
	// chunk copies nothing. Blocks a capped series gave up wait on the
	// free list, linked through next.
	chunks [][]runBlock
	free   int32
	built  bool // Series has run
}

// blockRuns is how many closed runs a block holds (72 B with its link).
// Most series that change at all change a few dozen times, so what a
// block size costs is the empty end of each one's last block: on the
// telemetry benchmarks 4-run blocks allocate the fewest bytes, and
// 16-run blocks more than run arrays grown by doubling.
const blockRuns = 4

// Chunks hold firstChunk blocks, then twice as many for each new chunk up
// to maxChunk: a prober whose series rarely change carves little, and one
// that churns leaves at most one chunk part unused. A block number is
// chunk<<chunkBits | offset, an int32 with room for 2^25 chunks (150 GB).
const (
	firstChunk = 4                       // blocks (288 B)
	doublings  = 4                       // chunks before they stop growing
	maxChunk   = firstChunk << doublings // blocks (4.5 KB)
	chunkBits  = 6                       // log2(maxChunk)
	noBlock    = -1                      // ends the free list
)

// runBlock is blockRuns closed runs of one series, and the number of the
// block after it in its chain or on the free list. It holds no pointer,
// so a chunk of them is one allocation the garbage collector never scans.
type runBlock struct {
	runs [blockRuns]valueRun
	next int32
}

// chain is one series' closed runs, oldest first: runs of them in blocks
// from head to tail, every block but the tail full. The zero chain is
// empty. The samples the runs hold are not counted here: they are every
// tick from the series' StartPs up to its open run.
type chain struct {
	head, tail, runs int32
}

// NewProber builds a prober over reg. Nil reg (or eng) yields a nil
// prober whose methods no-op.
func NewProber(eng *sim.Engine, reg *Registry, opts *Options) *Prober {
	if eng == nil || reg == nil {
		return nil
	}
	return &Prober{eng: eng, reg: reg, interval: opts.Interval(), capacity: opts.Cap(), free: noBlock}
}

// Start begins sampling; the first sample lands one interval from now.
func (p *Prober) Start() {
	if p == nil || p.ticker != nil {
		return
	}
	prev := p.eng.SetComponent(p.eng.Component("obs/prober"))
	p.ticker = p.eng.ScheduleEvery(p.interval, (*proberTick)(p))
	p.eng.SetComponent(prev)
}

// Stop halts sampling.
func (p *Prober) Stop() {
	if p != nil {
		p.ticker.Stop()
	}
}

// proberTick is the prober's periodic event, the prober itself: starting
// it binds no closure.
type proberTick Prober

func (t *proberTick) Fire() { (*Prober)(t).tick() }

// tick reads every source. Sources registered after Start are picked up
// on their first subsequent tick (their series simply begins later).
func (p *Prober) tick() {
	if p.built {
		panic("obs: prober ticked after Series")
	}
	p.at = int64(p.eng.Now())
	srcs := p.reg.sources
	if len(srcs) > len(p.series) {
		p.begin(srcs[len(p.series):])
	}
	for i := range srcs {
		v := srcs[i].read()
		if srcs[i].kind == Cumulative {
			v, p.last[i] = v-p.last[i], v
		}
		if o := &p.open[i]; o.v == v {
			o.n++
		} else {
			if o.n > 0 {
				p.close(i)
			}
			*o = valueRun{v, 1}
		}
	}
	p.ticks++
}

// begin opens a series for each new source, its open run empty.
func (p *Prober) begin(srcs []source) {
	p.series = slices.Grow(p.series, len(srcs))
	for i := range srcs {
		p.series = append(p.series, SeriesData{
			Entity: srcs[i].entity, Metric: srcs[i].metric, Kind: srcs[i].kind.String(),
			IntervalPs: int64(p.interval), StartPs: p.at,
		})
	}
	p.last = append(p.last, make([]int64, len(srcs))...)
	p.open = append(p.open, make([]valueRun, len(srcs))...)
	p.chains = append(p.chains, make([]chain, len(srcs))...)
}

// close moves series i's open run to the tail of its chain. A chain whose
// oldest block holds only samples past the newest capacity gives that
// block back, so a capped series holds at most its capacity's runs and
// one block however long the run; Series trims the rest exactly.
func (p *Prober) close(i int) {
	c := &p.chains[i]
	off := c.runs % blockRuns
	if off == 0 {
		b := p.take()
		if c.runs == 0 {
			c.head = b
		} else {
			p.block(c.tail).next = b
		}
		c.tail = b
	}
	p.block(c.tail).runs[off] = p.open[i]
	c.runs++
	for c.head != c.tail {
		s := &p.series[i]
		h := p.block(c.head)
		var n int64
		for _, r := range h.runs {
			n += r.n
		}
		// Every tick from StartPs up to this one is in a closed run, and
		// this one's sample opens the next.
		if (p.at-s.StartPs)/s.IntervalPs-n+1 < int64(p.capacity) {
			return
		}
		s.Dropped += n
		s.StartPs += n * s.IntervalPs
		c.runs -= blockRuns
		b := c.head
		c.head, h.next, p.free = h.next, p.free, b
	}
}

// block returns block b.
func (p *Prober) block(b int32) *runBlock {
	return &p.chunks[b>>chunkBits][b&(maxChunk-1)]
}

// take returns a free block, or a new one, carving a chunk when the last
// is used up.
func (p *Prober) take() int32 {
	if b := p.free; b != noBlock {
		p.free = p.block(b).next
		return b
	}
	k := len(p.chunks) - 1
	if k < 0 || len(p.chunks[k]) == cap(p.chunks[k]) {
		k++
		p.chunks = append(p.chunks, make([]runBlock, 0, firstChunk<<min(k, doublings)))
	}
	off := len(p.chunks[k])
	p.chunks[k] = p.chunks[k][:off+1]
	return int32(k<<chunkBits | off)
}

// retained writes series i's newest capacity samples, as runs, to dst and
// returns how many runs they are; with a nil dst it only counts them.
func (p *Prober) retained(i int, dst []valueRun) int {
	s, c := &p.series[i], &p.chains[i]
	extra := max(0, (p.at-s.StartPs)/s.IntervalPs+1-int64(p.capacity))
	k := 0
	keep := func(r valueRun) {
		if extra >= r.n {
			extra -= r.n
			return
		}
		r.n -= extra
		extra = 0
		if dst != nil {
			dst[k] = r
		}
		k++
	}
	for b, left := c.head, c.runs; left > 0; left -= blockRuns {
		blk := p.block(b)
		for _, r := range blk.runs[:min(left, blockRuns)] {
			keep(r)
		}
		b = blk.next
	}
	keep(p.open[i])
	return k
}

// Ticks reports how many sampling rounds have run.
func (p *Prober) Ticks() int64 {
	if p == nil {
		return 0
	}
	return p.ticks
}

// Interval returns the sampling period.
func (p *Prober) Interval() sim.Time {
	if p == nil {
		return 0
	}
	return p.interval
}

// Series returns every series, in source registration order: read it
// once the prober has stopped. The first call builds them — each series'
// newest capacity samples, with the count and time of those it dropped —
// and the prober does not tick again. A series that never changed keeps
// its one run where the tick kept it open; every other series gets an
// exact-length slice of one allocation, and the blocks go back to the
// heap. The result is the prober's own storage, not a copy.
func (p *Prober) Series() []SeriesData {
	if p == nil {
		return nil
	}
	if p.built {
		return p.series
	}
	p.built = true
	n := 0
	for i := range p.series {
		if p.chains[i].runs > 0 {
			n += p.retained(i, nil)
		}
	}
	flat := make([]valueRun, n)
	for i := range p.series {
		s := &p.series[i]
		held := (p.at-s.StartPs)/s.IntervalPs + 1
		extra := max(0, held-int64(p.capacity))
		if p.chains[i].runs == 0 {
			p.open[i].n -= extra
			s.Values = Samples{runs: p.open[i : i+1 : i+1], n: int(held - extra)}
		} else {
			k := p.retained(i, flat)
			s.Values = Samples{runs: flat[:k:k], n: int(held - extra)}
			flat = flat[k:]
		}
		s.Dropped += extra
		s.StartPs += extra * s.IntervalPs
	}
	p.last, p.open, p.chains, p.chunks = nil, nil, nil, nil
	return p.series
}
