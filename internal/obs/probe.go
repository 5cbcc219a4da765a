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

// add appends v as the newest sample, displacing the oldest once the
// series holds capacity of them; StartPs stays the time of the oldest
// sample held.
func (s *SeriesData) add(v int64, capacity int) {
	if s.Values.Len() == capacity {
		s.Values.DropFront()
		s.Dropped++
		s.StartPs += s.IntervalPs
	}
	s.Values.Append(v)
}

// Prober samples every registry source on a fixed engine-driven cadence.
// Its tick only reads state, so enabling it never changes simulation
// results — it just adds observer events to the heap.
type Prober struct {
	eng      *sim.Engine
	reg      *Registry
	interval sim.Time
	capacity int
	series   []SeriesData // parallel to reg.sources at tick time
	last     []int64      // previous reading of each cumulative source
	ticker   *sim.Ticker
	ticks    int64
}

// NewProber builds a prober over reg. Nil reg (or eng) yields a nil
// prober whose methods no-op.
func NewProber(eng *sim.Engine, reg *Registry, opts *Options) *Prober {
	if eng == nil || reg == nil {
		return nil
	}
	return &Prober{eng: eng, reg: reg, interval: opts.Interval(), capacity: opts.Cap()}
}

// Start begins sampling; the first sample lands one interval from now.
func (p *Prober) Start() {
	if p == nil || p.ticker != nil {
		return
	}
	prev := p.eng.SetComponent(p.eng.Component("obs/prober"))
	p.ticker = p.eng.Every(p.interval, p.tick)
	p.eng.SetComponent(prev)
}

// Stop halts sampling.
func (p *Prober) Stop() {
	if p != nil {
		p.ticker.Stop()
	}
}

// tick reads every source. Sources registered after Start are picked up
// on their first subsequent tick (their series simply begins later).
func (p *Prober) tick() {
	srcs := p.reg.sources
	if len(srcs) > len(p.series) {
		p.begin(srcs[len(p.series):])
	}
	for i := range srcs {
		v := srcs[i].read()
		if srcs[i].kind == Cumulative {
			v, p.last[i] = v-p.last[i], v
		}
		p.series[i].add(v, p.capacity)
	}
	p.ticks++
}

// begin opens a series for each new source. Their first runs share one
// array, each series holding a slot of it at capacity one: a series that
// never changes value stays in its slot, and one that does moves to an
// array of its own on its second run.
func (p *Prober) begin(srcs []source) {
	now := int64(p.eng.Now())
	first := make([]valueRun, len(srcs))
	p.series = slices.Grow(p.series, len(srcs))
	for i := range srcs {
		p.series = append(p.series, SeriesData{
			Entity: srcs[i].entity, Metric: srcs[i].metric, Kind: srcs[i].kind.String(),
			IntervalPs: int64(p.interval), StartPs: now,
			Values: Samples{runs: first[i : i : i+1]},
		})
	}
	p.last = append(p.last, make([]int64, len(srcs))...)
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

// Series returns every series, in source registration order. The result
// is the prober's own storage, not a copy: read it once the prober has
// stopped.
func (p *Prober) Series() []SeriesData {
	if p == nil {
		return nil
	}
	return p.series
}
