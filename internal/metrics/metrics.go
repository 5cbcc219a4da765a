// Package metrics holds flow records and the order statistics computed
// over them and over sampled series: flow completion times with the
// paper's breakdowns (small flows, legacy vs upgraded traffic),
// starvation time over throughput series, and mean / quantile of queue
// occupancy samples. It schedules nothing: every periodic sample comes
// from an obs.Prober.
package metrics

import (
	"math"
	"sort"

	"flexpass/internal/sim"
	"flexpass/internal/transport"
	"flexpass/internal/units"
)

// FlowRecord is an immutable snapshot of a finished (or abandoned) flow.
type FlowRecord struct {
	ID          uint64
	Size        int64
	Start       sim.Time
	FCT         sim.Time // -1 if not completed
	Completed   bool
	Legacy      bool
	Incast      bool
	Transport   string
	Timeouts    int
	Retransmits int
	ProRetx     int
	Redundant   int
	MaxReorderB int64
	RxBytes     int64
}

// Snapshot captures a flow's stats.
func Snapshot(f *transport.Flow, incast bool) FlowRecord {
	return FlowRecord{
		ID:          f.ID,
		Size:        f.Size,
		Start:       f.Start,
		FCT:         f.FCT(),
		Completed:   f.Completed,
		Legacy:      f.Legacy,
		Incast:      incast,
		Transport:   f.Transport,
		Timeouts:    f.Timeouts,
		Retransmits: f.Retransmits,
		ProRetx:     f.ProRetx,
		Redundant:   f.RedundantSegs,
		MaxReorderB: f.MaxReorderB,
		RxBytes:     f.RxBytes,
	}
}

// Collector accumulates flow records.
type Collector struct {
	Records []FlowRecord
}

// Add appends a record.
func (c *Collector) Add(r FlowRecord) { c.Records = append(c.Records, r) }

// Filter selects flow records.
type Filter struct {
	MaxSize   int64 // 0 = no bound; the paper's "small flows" are <100kB
	MinSize   int64
	Legacy    *bool // nil = both
	Incast    *bool
	Transport string
	OnlyDone  bool
}

// Small is the paper's small-flow filter (<100kB).
func Small() Filter { return Filter{MaxSize: 100_000, OnlyDone: true} }

// Bool is a convenience for taking a *bool literal.
func Bool(v bool) *bool { return &v }

func (f Filter) match(r FlowRecord) bool {
	if f.OnlyDone && !r.Completed {
		return false
	}
	if f.MaxSize > 0 && r.Size >= f.MaxSize {
		return false
	}
	if r.Size < f.MinSize {
		return false
	}
	if f.Legacy != nil && r.Legacy != *f.Legacy {
		return false
	}
	if f.Incast != nil && r.Incast != *f.Incast {
		return false
	}
	if f.Transport != "" && r.Transport != f.Transport {
		return false
	}
	return true
}

// FCTs returns completion times of matching completed flows.
func (c *Collector) FCTs(f Filter) []sim.Time {
	f.OnlyDone = true
	var out []sim.Time
	for _, r := range c.Records {
		if f.match(r) {
			out = append(out, r.FCT)
		}
	}
	return out
}

// Count returns how many records match.
func (c *Collector) Count(f Filter) int {
	n := 0
	for _, r := range c.Records {
		if f.match(r) {
			n++
		}
	}
	return n
}

// SumInt sums an integer field over matching records.
func (c *Collector) SumInt(f Filter, field func(FlowRecord) int) int {
	n := 0
	for _, r := range c.Records {
		if f.match(r) {
			n += field(r)
		}
	}
	return n
}

// Incomplete counts flows that never finished (excluded from FCT stats but
// a red flag if large).
func (c *Collector) Incomplete() int {
	n := 0
	for _, r := range c.Records {
		if !r.Completed {
			n++
		}
	}
	return n
}

// Mean averages the durations; 0 for empty input.
func Mean(ts []sim.Time) sim.Time {
	if len(ts) == 0 {
		return 0
	}
	var sum int64
	for _, t := range ts {
		sum += int64(t)
	}
	return sim.Time(sum / int64(len(ts)))
}

// Percentile returns the p-quantile (0<p<=1) using nearest-rank on a
// sorted copy; 0 for empty input.
func Percentile(ts []sim.Time, p float64) sim.Time {
	if len(ts) == 0 {
		return 0
	}
	sorted := make([]sim.Time, len(ts))
	copy(sorted, ts)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// StdDev returns the standard deviation of the durations.
func StdDev(ts []sim.Time) sim.Time {
	if len(ts) < 2 {
		return 0
	}
	m := float64(Mean(ts))
	var ss float64
	for _, t := range ts {
		d := float64(t) - m
		ss += d * d
	}
	return sim.Time(math.Sqrt(ss / float64(len(ts))))
}

// Max returns the maximum duration; 0 for empty input.
func Max(ts []sim.Time) sim.Time {
	var m sim.Time
	for _, t := range ts {
		if t > m {
			m = t
		}
	}
	return m
}

// StarvationFraction returns the fraction of sampling windows in which the
// named group's throughput was below the threshold — the paper's
// starvation time ("duration of each transport's bandwidth being less
// than 20%", Fig 9c). Windows where both groups are idle (no offered
// load) are still counted, as in a testbed wall-clock measurement over an
// active experiment; pass skipIdle to exclude windows with zero total.
func StarvationFraction(a, b []units.Rate, threshold units.Rate, skipIdle bool) (fracA, fracB float64) {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n == 0 {
		return 0, 0
	}
	windows, belowA, belowB := 0, 0, 0
	for i := 0; i < n; i++ {
		if skipIdle && a[i] == 0 && b[i] == 0 {
			continue
		}
		windows++
		if a[i] < threshold {
			belowA++
		}
		if b[i] < threshold {
			belowB++
		}
	}
	if windows == 0 {
		return 0, 0
	}
	return float64(belowA) / float64(windows), float64(belowB) / float64(windows)
}

// Stats summarizes samples: mean and p-quantile.
func Stats(samples []int64, p float64) (mean int64, pctl int64) {
	if len(samples) == 0 {
		return 0, 0
	}
	ts := make([]sim.Time, len(samples))
	var sum int64
	for i, s := range samples {
		ts[i] = sim.Time(s)
		sum += s
	}
	return sum / int64(len(samples)), int64(Percentile(ts, p))
}
