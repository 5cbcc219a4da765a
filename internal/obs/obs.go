// Package obs is the simulator's unified telemetry plane: a central
// registry of named counters, gauges, and histograms keyed by entity
// (switch/port/queue/flow/transport), a periodic prober that turns them
// into run-length-encoded time series, and a JSONL/CSV exporter that
// makes every run a self-describing artifact.
//
// The telemetry path costs per entity and per value change, not per
// source, tick or line:
//
//   - A source is a plain *int64 — a stats field the fabric already
//     keeps, or an owned Counter's value — or, for a computed value only,
//     a closure (CounterFunc, Gauge). A probe tick reads memory.
//   - There is one series type, SeriesData: the prober builds it once,
//     when its ticks are over, Collect hands the prober's slice to the
//     Run, and the exporter writes it. Its Samples hold one run per value
//     change.
//   - A tick writes on change. Each source's open run sits in a flat
//     array, so an unchanged reading is a compare and a count; a change
//     closes the run into the series' chain of fixed-size blocks, carved
//     from chunks the prober owns. Series cuts every series that changed
//     an exact-length slice of one allocation, and a series that never
//     changed keeps its one run where the tick kept it open.
//   - WriteJSONL streams every series line through one reused buffer:
//     encoding/json writes the line's names and the values are appended
//     after them, never re-scanned.
//
// FlowsDigest is the one digest of a run's flows: the sha256 of its flow
// lines, written by the same code WriteJSONL writes them with, so the
// golden rows that pin the model can be read off any artifact.
//
// MergeRuns folds the per-plane runs of a sharded run and lists counters
// and series in (entity, metric) order, so an artifact is the same lines
// at every shard count.
//
// The whole package follows the nil-no-op convention used by trace.Ring:
// a nil *Registry (and the nil *Counter / *Histogram it hands out)
// disables every method, so instrumented code keeps unconditional calls
// on hot paths and pays nothing when telemetry is off.
package obs

import (
	"hash/maphash"
	"slices"
	"strings"
)

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

// source is one sampleable metric: an entity/metric name pair and where
// its current value is — the int64 at, or, for a computed value, what fn
// returns.
type source struct {
	entity, metric string
	kind           SampleKind
	at             *int64
	fn             func() int64
}

func (s *source) read() int64 {
	if s.at != nil {
		return *s.at
	}
	return s.fn()
}

// Registry holds every registered metric for one run. A nil Registry is
// valid and registers nothing: Counter returns a nil *Counter whose
// methods no-op, and the other registrations are dropped.
type Registry struct {
	sources  []source
	hists    []*Histogram
	byKey    []int32 // sources by name: see slot
	seed     maphash.Seed
	counters map[sourceKey]*Counter // owned counters, for idempotent re-registration
}

// sourceKey names a source without building a joined string for it.
type sourceKey struct{ entity, metric string }

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make([]int32, 16), seed: maphash.MakeSeed(), counters: make(map[sourceKey]*Counter)}
}

// Grow makes room for n more sources, in the slices.Grow idiom: the next
// n registrations allocate nothing. A caller that knows how many sources
// it is about to register (a fabric: netem's Sources) sizes the registry
// once instead of letting it grow a source at a time.
func (r *Registry) Grow(n int) {
	if r == nil || n <= 0 {
		return
	}
	if len(r.sources)+n > cap(r.sources) {
		// One allocation: slices.Grow's append of a make is two under -race.
		sources := make([]source, len(r.sources), len(r.sources)+n)
		copy(sources, r.sources)
		r.sources = sources
	}
	r.index(len(r.sources) + n)
}

// byKey is an open-addressing table of 1 + index in sources (0 is an
// empty slot), probed linearly from the name's hash and kept at most half
// full: one int32 to four per source where a map entry would take 41
// bytes.
//
// slot returns where key is in byKey, or the empty slot it would take.
func (r *Registry) slot(key sourceKey) int {
	mask := len(r.byKey) - 1
	h := maphash.String(r.seed, key.entity) ^ 0x9e3779b97f4a7c15*maphash.String(r.seed, key.metric)
	for i := int(h) & mask; ; i = (i + 1) & mask {
		j := r.byKey[i]
		if j == 0 || r.sources[j-1].entity == key.entity && r.sources[j-1].metric == key.metric {
			return i
		}
	}
}

// index makes byKey at least half empty with n sources registered.
func (r *Registry) index(n int) {
	if 2*n <= len(r.byKey) {
		return
	}
	size := 16
	for size < 2*n {
		size *= 2
	}
	r.byKey = make([]int32, size)
	for j := range r.sources {
		r.byKey[r.slot(sourceKey{r.sources[j].entity, r.sources[j].metric})] = int32(j + 1)
	}
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
	c := &Counter{}
	r.counters[key] = c
	r.register(source{entity, metric, Cumulative, &c.v, nil})
	return c
}

// CounterAt registers the cumulative total instrumented code keeps at v
// (e.g. &PortStats.TxBytes). The prober records per-interval deltas.
func (r *Registry) CounterAt(entity, metric string, v *int64) {
	r.register(source{entity, metric, Cumulative, v, nil})
}

// GaugeAt registers the instantaneous value instrumented code keeps at v
// (e.g. a queue's byte occupancy). The prober records raw readings.
func (r *Registry) GaugeAt(entity, metric string, v *int64) {
	r.register(source{entity, metric, Instant, v, nil})
}

// CounterFunc registers a cumulative metric computed by fn, for a total
// no single int64 holds. The prober records per-interval deltas.
func (r *Registry) CounterFunc(entity, metric string, fn func() int64) {
	r.register(source{entity, metric, Cumulative, nil, fn})
}

// Gauge registers an instantaneous metric computed by fn. The prober
// records raw readings.
func (r *Registry) Gauge(entity, metric string, fn func() int64) {
	r.register(source{entity, metric, Instant, nil, fn})
}

// register adds s, or replaces the source already registered under its
// name.
func (r *Registry) register(s source) {
	if r == nil || s.at == nil && s.fn == nil {
		return
	}
	key := sourceKey{s.entity, s.metric}
	i := r.slot(key)
	if j := r.byKey[i]; j != 0 {
		r.sources[j-1] = s
		return
	}
	if 2*(len(r.sources)+1) > len(r.byKey) {
		r.index(2 * (len(r.sources) + 1))
		i = r.slot(key)
	}
	r.sources = append(r.sources, s)
	r.byKey[i] = int32(len(r.sources))
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

// Final reads every source once and returns the closing values — the
// artifact's counter lines — sorted by entity then metric.
func (r *Registry) Final() []CounterData {
	if r == nil {
		return nil
	}
	out := make([]CounterData, len(r.sources))
	for i := range r.sources {
		s := &r.sources[i]
		out[i] = CounterData{s.entity, s.metric, s.kind.String(), s.read()}
	}
	slices.SortFunc(out, func(a, b CounterData) int { return byName(a.Entity, a.Metric, b.Entity, b.Metric) })
	return out
}

// byName orders artifact lines by entity, then metric.
func byName(entity1, metric1, entity2, metric2 string) int {
	if c := strings.Compare(entity1, entity2); c != 0 {
		return c
	}
	return strings.Compare(metric1, metric2)
}

// Counter is a monotonically increasing count owned by instrumented
// code. A nil *Counter no-ops, so hot paths increment unconditionally.
type Counter struct{ v int64 }

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
