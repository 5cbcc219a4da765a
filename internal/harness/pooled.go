package harness

import (
	"context"
	"sync/atomic"

	"flexpass/internal/metrics"
)

// RunPooled executes the scenario once per seed and pools every flow
// record before computing statistics, so tail percentiles are taken over
// the union of flows rather than averaged across runs — the statistically
// honest way to tighten single-seed noise in the deployment figures.
func RunPooled(sc Scenario, seeds []int64) DeploymentPoint {
	return runPooled([]Scenario{sc}, seeds)[0]
}

// runPooled runs every (scenario, seed) pair on one pool — no seeds means
// each scenario's own — and reduces a scenario to its point when its last
// seed finishes, releasing that scenario's results there.
func runPooled(scs []Scenario, seeds []int64) []DeploymentPoint {
	k := max(len(seeds), 1)
	out := make([]DeploymentPoint, len(scs))
	results := make([]*Result, len(scs)*k)
	left := make([]atomic.Int32, len(scs)) // seeds still to finish
	for p := range left {
		left[p].Store(int32(k))
	}
	Each(context.Background(), 0, len(results), func(_, j int) {
		p := j / k
		sc := scs[p]
		if len(seeds) > 0 {
			sc.Seed = seeds[j%k]
		}
		results[j] = Run(sc)
		if left[p].Add(-1) == 0 {
			out[p] = reducePoint(scs[p], mergeSeeds(results[p*k:(p+1)*k]))
			clear(results[p*k : (p+1)*k])
		}
	})
	return out
}

// mergeSeeds folds one scenario's per-seed results, in seed order, into
// one synthetic result.
func mergeSeeds(results []*Result) *Result {
	merged := results[0]
	for _, r := range results[1:] {
		merged.Flows.Records = append(merged.Flows.Records, r.Flows.Records...)
		merged.DropsRed += r.DropsRed
		merged.DropsCredit += r.DropsCredit
		merged.DropsOther += r.DropsOther
		merged.Events += r.Events
		// Queue stats, red bytes included: keep the worst seed's.
		merged.QueueAvg = max(merged.QueueAvg, r.QueueAvg)
		merged.QueueP90 = max(merged.QueueP90, r.QueueP90)
		merged.QueueRedAvg = max(merged.QueueRedAvg, r.QueueRedAvg)
		merged.QueueRedP90 = max(merged.QueueRedP90, r.QueueRedP90)
	}
	return merged
}

// reducePoint converts a (possibly merged) result into a DeploymentPoint.
func reducePoint(sc Scenario, res *Result) DeploymentPoint {
	s := metrics.Summarize(res.Flows.Records)
	return DeploymentPoint{
		Scheme:     sc.Scheme,
		Deployment: sc.Deployment,
		Load:       sc.Load,
		WQ:         sc.WQ,
		Workload:   sc.WorkloadName(),

		P99Small:       s.P99Small,
		AvgAll:         s.MeanFCT,
		P99SmallLegacy: s.P99SmallLegacy,
		P99SmallNew:    s.P99SmallNew,
		StdSmallLegacy: s.StdSmallLegacy,
		StdSmallNew:    s.StdSmallNew,

		AvgReorderKB:  s.ReorderKB,
		RedundantFrac: s.RedundantFrac,

		QueueAvg:    res.QueueAvg,
		QueueP90:    res.QueueP90,
		QueueRedAvg: res.QueueRedAvg,
		QueueRedP90: res.QueueRedP90,

		Timeouts:   s.Timeouts,
		Incomplete: s.Incomplete(),
		OracleWQ:   res.OracleWQ,
		DropsRed:   res.DropsRed,
		DropsCred:  res.DropsCredit,
		DropsOther: res.DropsOther,
	}
}
