package obs

import "flexpass/internal/sim"

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

// Series is one probed metric's samples, the most recent SeriesCap of
// them. Cumulative sources yield per-interval deltas; instant sources
// yield raw readings.
type Series struct {
	Entity, Metric string
	Kind           SampleKind
	Interval       sim.Time
	start          sim.Time // engine time of the first sample ever taken
	samples        Samples
	dropped        int64
}

// Samples returns the held samples in chronological order. The result
// shares storage with the series: read it once the prober has stopped.
func (s *Series) Samples() Samples { return s.samples }

// Dropped reports how many old samples were displaced by the cap.
func (s *Series) Dropped() int64 { return s.dropped }

// Start returns the engine time of the oldest retained sample.
func (s *Series) Start() sim.Time {
	return s.start + sim.Time(s.dropped)*s.Interval
}

func (s *Series) add(v int64, capacity int) {
	if s.samples.Len() == capacity {
		s.samples.DropFront()
		s.dropped++
	}
	s.samples.Append(v)
}

// Prober samples every registry source on a fixed engine-driven cadence.
// Its tick only reads state, so enabling it never changes simulation
// results — it just adds observer events to the heap.
type Prober struct {
	eng      *sim.Engine
	reg      *Registry
	interval sim.Time
	capacity int
	series   []*Series // parallel to reg.sources at tick time
	last     []int64   // previous reading of each cumulative source
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
	now := p.eng.Now()
	for i, src := range p.reg.sources {
		if i == len(p.series) {
			s := &Series{
				Entity: src.entity, Metric: src.metric, Kind: src.kind,
				Interval: p.interval, start: now,
			}
			p.series = append(p.series, s)
			p.last = append(p.last, 0)
		}
		v := src.read()
		switch src.kind {
		case Cumulative:
			p.series[i].add(v-p.last[i], p.capacity)
			p.last[i] = v
		default:
			p.series[i].add(v, p.capacity)
		}
	}
	p.ticks++
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

// Series returns all collected series.
func (p *Prober) Series() []*Series {
	if p == nil {
		return nil
	}
	return p.series
}
