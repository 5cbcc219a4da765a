// Package obs is the simulator's unified telemetry plane: a central
// registry of named counters, gauges, and histograms keyed by entity
// (switch/port/queue/flow/transport), a periodic prober that turns them
// into run-length-encoded time series, and a JSONL/CSV exporter that
// makes every run a self-describing artifact.
//
// The whole package follows the nil-no-op convention used by trace.Ring:
// a nil *Registry (and the nil *Counter / *Histogram it hands out)
// disables every method, so instrumented code keeps unconditional calls
// on hot paths and pays nothing when telemetry is off.
package obs

import "sort"

// SampleKind says how the prober interprets a source's readings.
type SampleKind uint8

const (
	// Cumulative sources are monotonically increasing totals; the prober
	// records per-interval deltas (e.g. tx bytes -> throughput).
	Cumulative SampleKind = iota
	// Instant sources are point-in-time values recorded as-is
	// (e.g. queue occupancy, shared-buffer usage).
	Instant
)

// String names the kind using the wire vocabulary of the JSONL schema.
func (k SampleKind) String() string {
	if k == Cumulative {
		return "delta"
	}
	return "instant"
}

// source is one sampleable metric: an entity/metric name pair plus a
// lazy reader of its current value.
type source struct {
	entity, metric string
	kind           SampleKind
	read           func() int64
}

// Registry holds every registered metric for one run. A nil Registry is
// valid and registers nothing: Counter returns a nil *Counter whose
// methods no-op, and CounterFunc/Gauge simply drop the closure.
type Registry struct {
	sources  []source
	hists    []*Histogram
	byKey    map[sourceKey]int      // index in sources
	counters map[sourceKey]*Counter // owned counters, for idempotent re-registration
}

// sourceKey names a source without building a joined string for it.
type sourceKey struct{ entity, metric string }

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[sourceKey]int), counters: make(map[sourceKey]*Counter)}
}

// Counter registers (or returns the existing) owned counter for
// entity/metric. Owned counters are incremented by instrumented code via
// Add/Inc and sampled by the prober as per-interval deltas.
func (r *Registry) Counter(entity, metric string) *Counter {
	if r == nil {
		return nil
	}
	key := sourceKey{entity, metric}
	if c, ok := r.counters[key]; ok {
		return c
	}
	c := &Counter{entity: entity, metric: metric}
	r.counters[key] = c
	r.register(entity, metric, Cumulative, c.Value)
	return c
}

// CounterFunc registers a cumulative metric read lazily from fn — the
// bridge for pre-existing *Stats structs that already keep totals
// (e.g. PortStats.TxBytes). The prober records per-interval deltas.
func (r *Registry) CounterFunc(entity, metric string, fn func() int64) {
	r.register(entity, metric, Cumulative, fn)
}

// Gauge registers an instantaneous metric read lazily from fn
// (e.g. current queue bytes). The prober records raw readings.
func (r *Registry) Gauge(entity, metric string, fn func() int64) {
	r.register(entity, metric, Instant, fn)
}

func (r *Registry) register(entity, metric string, kind SampleKind, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	key := sourceKey{entity, metric}
	if i, ok := r.byKey[key]; ok {
		r.sources[i] = source{entity, metric, kind, fn}
		return
	}
	r.byKey[key] = len(r.sources)
	r.sources = append(r.sources, source{entity, metric, kind, fn})
}

// Histogram registers (or returns the existing) histogram for
// entity/metric. Histograms are exported with final counts only; the
// prober does not sample them.
func (r *Registry) Histogram(entity, metric string) *Histogram {
	if r == nil {
		return nil
	}
	for _, h := range r.hists {
		if h.entity == entity && h.metric == metric {
			return h
		}
	}
	h := &Histogram{entity: entity, metric: metric}
	r.hists = append(r.hists, h)
	return h
}

// Len reports how many counter/gauge sources are registered.
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	return len(r.sources)
}

// Final reads every source once and returns the closing values, sorted
// by entity then metric for stable export.
func (r *Registry) Final() []Reading {
	if r == nil {
		return nil
	}
	out := make([]Reading, 0, len(r.sources))
	for _, s := range r.sources {
		out = append(out, Reading{s.entity, s.metric, s.kind, s.read()})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Entity != out[j].Entity {
			return out[i].Entity < out[j].Entity
		}
		return out[i].Metric < out[j].Metric
	})
	return out
}

// Reading is one source's closing value.
type Reading struct {
	Entity, Metric string
	Kind           SampleKind
	Value          int64
}

// Counter is a monotonically increasing count owned by instrumented
// code. A nil *Counter no-ops, so hot paths increment unconditionally.
type Counter struct {
	entity, metric string
	v              int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v += n
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Histogram records a value distribution in power-of-two buckets (see
// buckets.go). Good enough for order-of-magnitude latency/size profiles
// at near-zero cost.
type Histogram struct {
	entity, metric string
	counts         [64]int64
	n, sum         int64
}

// Observe records one value. Nil-safe.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.counts[BucketOf(v, len(h.counts))]++
	h.n++
	h.sum += v
}

// Count reports how many values were observed.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n
}

// Sum reports the total of all observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum
}
