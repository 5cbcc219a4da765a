package obs

import "slices"

// MergeRuns folds several per-shard run artifacts into one, under a
// caller-provided manifest. Sharded runs give each shard its own
// Registry and Prober (counters are plain int64s owned by one
// goroutine), collect each shard with Collect after the fabric drains,
// and merge here:
//
//   - Counters with the same (entity, metric, kind) are summed.
//   - Histograms with the same (entity, metric) sum their counts and
//     observation sums and merge their sparse bucket lists by bound.
//   - Series with the same (entity, metric, kind, interval, start) and
//     equal length are summed pointwise into fresh samples; they cover
//     the same ticks, so the sum keeps the drop count each copy has. Any
//     other series is kept as-is, sharing its samples with the input
//     (per-port series have disjoint entities across shards and take
//     this path).
//
// The merged counters and series are in (entity, metric) order, ties in
// the order the runs are passed, so the artifact is the same lines in
// the same order at every shard count. One run is not copied: it is
// sorted in place and returned under m — a single-engine run is the
// one-shard case and pays nothing else for the fold.
//
// Trace, forensics, and fault lines are not merged here — callers attach
// those from their own merged sources (trace.Merge, the fault log).
func MergeRuns(m Manifest, runs ...*Run) *Run {
	m.Schema = SchemaVersion
	out := &Run{Manifest: m}
	if len(runs) == 1 && runs[0] != nil {
		out = runs[0]
		out.Manifest = m
	} else {
		out.merge(runs)
	}
	slices.SortStableFunc(out.Counters, func(a, b CounterData) int { return byName(a.Entity, a.Metric, b.Entity, b.Metric) })
	slices.SortStableFunc(out.Series, func(a, b SeriesData) int { return byName(a.Entity, a.Metric, b.Entity, b.Metric) })
	return out
}

// merge folds runs into out, which starts empty.
func (out *Run) merge(runs []*Run) {
	type seriesKey struct {
		entity, metric, kind string
		intervalPs, startPs  int64
	}
	cIdx := map[CounterData]int{}
	hIdx := map[[2]string]int{}
	sIdx := map[seriesKey]int{}
	for _, r := range runs {
		if r == nil {
			continue
		}
		for _, c := range r.Counters {
			key := c
			key.Value = 0
			if j, ok := cIdx[key]; ok {
				out.Counters[j].Value += c.Value
				continue
			}
			cIdx[key] = len(out.Counters)
			out.Counters = append(out.Counters, c)
		}
		for _, h := range r.Hists {
			key := [2]string{h.Entity, h.Metric}
			if j, ok := hIdx[key]; ok {
				dst := &out.Hists[j]
				dst.Count += h.Count
				dst.Sum += h.Sum
				dst.Le, dst.Counts = MergeSparse(dst.Le, dst.Counts, h.Le, h.Counts)
				continue
			}
			hIdx[key] = len(out.Hists)
			h.Le = append([]int64(nil), h.Le...)
			h.Counts = append([]int64(nil), h.Counts...)
			out.Hists = append(out.Hists, h)
		}
		for _, s := range r.Series {
			key := seriesKey{s.Entity, s.Metric, s.Kind, s.IntervalPs, s.StartPs}
			if j, ok := sIdx[key]; ok && out.Series[j].Values.Len() == s.Values.Len() {
				dst := &out.Series[j]
				dst.Values = dst.Values.plus(s.Values)
				continue
			}
			if _, ok := sIdx[key]; !ok {
				sIdx[key] = len(out.Series)
			}
			out.Series = append(out.Series, s)
		}
	}
}
