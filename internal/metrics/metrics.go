// Package metrics holds flow records and the order statistics computed
// over them and over sampled series: flow completion times with the
// paper's breakdowns (small flows, legacy vs upgraded traffic),
// starvation time over throughput series, and mean / quantile of queue
// occupancy samples. It schedules nothing: every periodic sample comes
// from an obs.Prober.
package metrics

import (
	"fmt"
	"math"
	"reflect"
	"slices"

	"flexpass/internal/sim"
	"flexpass/internal/units"
)

// FlowRecord is an immutable snapshot of a finished (or abandoned) flow:
// one row of a run's flow table, and one "flow" line of its artifact.
type FlowRecord struct {
	ID          uint64   `json:"id"`
	Size        int64    `json:"size"`
	Start       sim.Time `json:"start_ps"`
	FCT         sim.Time `json:"fct_ps"` // -1 if not completed
	Completed   bool     `json:"completed,omitempty"`
	Legacy      bool     `json:"legacy,omitempty"`
	Incast      bool     `json:"incast,omitempty"`
	Transport   string   `json:"transport"`
	Timeouts    int      `json:"timeouts,omitempty"`
	Retransmits int      `json:"retransmits,omitempty"`
	ProRetx     int      `json:"pro_retx,omitempty"`
	Redundant   int      `json:"redundant,omitempty"`
	MaxReorderB int64    `json:"max_reorder_b,omitempty"`
	RxBytes     int64    `json:"rx_bytes"`
	// RxBytes split by FlexPass sub-flow, and the credits a credit-based
	// sender was granted and found nothing to send with.
	RxBytesPro     int64 `json:"rx_bytes_pro,omitempty"`
	RxBytesRe      int64 `json:"rx_bytes_re,omitempty"`
	CreditsGranted int   `json:"credits_granted,omitempty"`
	CreditsWasted  int   `json:"credits_wasted,omitempty"`
}

// RecordsDiff names the first difference between two flow tables — the
// index, ID and field of the first record that differs, or their lengths
// — or is "" when they are equal.
func RecordsDiff(got, want []FlowRecord) string {
	for i := range min(len(got), len(want)) {
		if got[i] == want[i] {
			continue
		}
		va, vb := reflect.ValueOf(got[i]), reflect.ValueOf(want[i])
		for f := range va.NumField() {
			if x, y := va.Field(f).Interface(), vb.Field(f).Interface(); x != y {
				return fmt.Sprintf("flow record %d (ID %d): %s = %v, want %v", i, want[i].ID, va.Type().Field(f).Name, x, y)
			}
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d flow records, want %d", len(got), len(want))
	}
	return ""
}

// Collector is a run's flow table.
type Collector struct {
	Records []FlowRecord
}

// SmallFlow bounds the paper's "small flows": those under 100 kB.
const SmallFlow = 100_000

// Filter selects flow records by size.
type Filter struct {
	MaxSize int64 // 0 = no bound
}

// Small is the paper's small-flow filter.
func Small() Filter { return Filter{MaxSize: SmallFlow} }

// FCTs returns completion times of the completed flows the filter
// selects, in record order.
func (c *Collector) FCTs(f Filter) []sim.Time {
	var out []sim.Time
	for _, r := range c.Records {
		if r.Completed && (f.MaxSize == 0 || r.Size < f.MaxSize) {
			out = append(out, r.FCT)
		}
	}
	return out
}

// Summary is every per-flow statistic a run reports: the lake's per-flow
// columns (and so every figure and the degradation report), flexsim's
// summary and chaos all read this one reduction. FCT statistics cover
// completed flows; quantiles are nearest-rank order statistics.
type Summary struct {
	Flows, Completed      int
	SmallCompleted        int   // completed flows under SmallFlow
	RxBytes               int64 // payload delivered, every flow
	Timeouts, Retransmits int

	MeanFCT, P50FCT, P99FCT, MaxFCT sim.Time // every completed flow

	// Completed flows under SmallFlow: all of them, legacy, upgraded.
	P99Small, P99SmallLegacy, P99SmallNew sim.Time
	StdSmallLegacy, StdSmallNew           sim.Time

	ReorderKB     float64  // mean reordering-buffer high-water mark of upgraded flows, kB
	RedundantFrac float64  // duplicate segment volume over delivered volume
	LastFinish    sim.Time // latest completion instant
}

// Incomplete counts flows that never finished (excluded from FCT
// statistics, but a red flag if large).
func (s Summary) Incomplete() int { return s.Flows - s.Completed }

// GoodputGbps is the delivered payload over window, in Gb/s.
func (s Summary) GoodputGbps(window sim.Time) float64 {
	if window <= 0 {
		return 0
	}
	return float64(s.RxBytes) * 8 / (float64(window) / float64(sim.Second)) / 1e9
}

// Summarize reduces a flow table to its Summary.
func Summarize(records []FlowRecord) Summary {
	s := Summary{Flows: len(records)}
	// Count first, then carve the four FCT lists from one array.
	var nAll, nSmall, nLegacy int
	for i := range records {
		if r := &records[i]; r.Completed {
			nAll++
			if r.Size < SmallFlow {
				nSmall++
				if r.Legacy {
					nLegacy++
				}
			}
		}
	}
	buf := make([]sim.Time, nAll+2*nSmall)
	all, small, rest := buf[:0:nAll], buf[nAll:nAll:nAll+nSmall], buf[nAll+nSmall:]
	legacy, upgraded := rest[:0:nLegacy], rest[nLegacy:nLegacy]
	var reorderSum, reorderN float64
	var redundant int64
	for _, r := range records {
		s.RxBytes += r.RxBytes
		s.Timeouts += r.Timeouts
		s.Retransmits += r.Retransmits
		redundant += int64(r.Redundant)
		if !r.Legacy {
			reorderSum += float64(r.MaxReorderB)
			reorderN++
		}
		if !r.Completed {
			continue
		}
		all = append(all, r.FCT)
		s.MaxFCT = max(s.MaxFCT, r.FCT)
		s.LastFinish = max(s.LastFinish, r.Start+r.FCT)
		if r.Size >= SmallFlow {
			continue
		}
		small = append(small, r.FCT)
		if r.Legacy {
			legacy = append(legacy, r.FCT)
		} else {
			upgraded = append(upgraded, r.FCT)
		}
	}
	s.Completed, s.SmallCompleted = len(all), len(small)
	// Mean and standard deviation sum in record order, before the sorts.
	s.MeanFCT = Mean(all)
	s.StdSmallLegacy, s.StdSmallNew = StdDev(legacy), StdDev(upgraded)
	for _, ts := range [][]sim.Time{all, small, legacy, upgraded} {
		slices.Sort(ts)
	}
	s.P50FCT, s.P99FCT = nearestRank(all, 0.5), nearestRank(all, 0.99)
	s.P99Small = nearestRank(small, 0.99)
	s.P99SmallLegacy, s.P99SmallNew = nearestRank(legacy, 0.99), nearestRank(upgraded, 0.99)
	if reorderN > 0 {
		s.ReorderKB = reorderSum / reorderN / 1000
	}
	if s.RxBytes > 0 {
		s.RedundantFrac = float64(redundant*1460) / float64(s.RxBytes)
	}
	return s
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
	sorted := slices.Clone(ts)
	slices.Sort(sorted)
	return nearestRank(sorted, p)
}

// nearestRank is the p-quantile of sorted; 0 for empty input.
func nearestRank(sorted []sim.Time, p float64) sim.Time {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(idx, 0), len(sorted)-1)]
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
