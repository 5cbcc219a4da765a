package lake

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Cross-run regression reports: match every candidate row to its
// baseline row by scenario identity and compare the deterministic
// result metrics under a tolerance. Perf self-reports (wall_ms,
// events_per_sec) are machine-dependent, so they are always reported
// but never count as drift.

// DiffMetrics is the deterministic metric set a diff gates on, in
// report order.
var DiffMetrics = []string{
	"goodput_gbps", "avg_fct_us", "fct_p50_us", "fct_p99_us",
	"p99_small_us", "p99_small_legacy_us", "p99_small_new_us",
	"std_small_legacy_us", "std_small_new_us",
	"flows", "completed", "timeouts", "retransmits",
	"drops_red", "drops_total", "fault_drops",
	"coflows", "coflows_done", "cct_p99_us", "events",
}

// PerfMetrics are reported for context but never drift.
var PerfMetrics = []string{"events_per_sec", "wall_ms"}

// Tolerance bounds acceptable drift: a metric drifts when
// |cur-base| > Abs + Pct/100·|base|. The zero value tolerates nothing
// — right for a deterministic simulator, where any delta is a real
// behavior change.
type Tolerance struct {
	Pct float64
	Abs float64
}

// Within reports whether the delta is inside tolerance.
func (t Tolerance) Within(base, cur float64) bool {
	return math.Abs(cur-base) <= t.Abs+t.Pct/100*math.Abs(base)
}

// MetricDelta is one metric's baseline/candidate pair.
type MetricDelta struct {
	Metric   string  `json:"metric"`
	Base     float64 `json:"base"`
	Cur      float64 `json:"cur"`
	DeltaPct float64 `json:"delta_pct"` // 0 when base is 0
	Drifted  bool    `json:"drifted"`
}

// RowDiff is one matched scenario's comparison.
type RowDiff struct {
	ID      string        `json:"id"`
	Label   string        `json:"label"` // human summary: scheme/topo/workload/load/seed
	Drifted bool          `json:"drifted"`
	Deltas  []MetricDelta `json:"deltas"`
}

// DiffReport is the full cross-run comparison.
type DiffReport struct {
	Matched          int       `json:"matched"`
	Drifted          int       `json:"drifted"`
	MissingBaseline  []string  `json:"missing_baseline,omitempty"`  // candidate rows with no baseline
	MissingCandidate []string  `json:"missing_candidate,omitempty"` // baseline rows with no candidate
	Rows             []RowDiff `json:"rows"`
}

// Clean reports whether nothing drifted and every baseline scenario
// has a candidate (new candidate-only scenarios are additions, not
// regressions, and do not dirty the report).
func (d *DiffReport) Clean() bool {
	return d.Drifted == 0 && len(d.MissingCandidate) == 0
}

// rowKey is the identity a diff matches rows on: the full dimension
// tuple, shard count included — a sharded run has the results of its
// one-engine twin but more events (TestBaselineShardInvariant), so each
// is its own row. Deliberately not the farm's content hash,
// so lakes produced by different orchestrator versions (or hand-run
// artifacts) still match on what the scenario actually was.
func rowKey(r *Row) string {
	return strings.Join([]string{
		r.Scheme, r.Topo, r.Workload, r.Options, r.FaultSig, r.WlPlanSig,
		trimFloat(r.Load), trimFloat(r.Deploy), trimFloat(r.WQ), fmt.Sprintf("%d", r.RedKB),
		fmt.Sprintf("%d", r.Seed), fmt.Sprintf("%d", r.DurationPs), fmt.Sprintf("%d", r.Shards),
	}, "|")
}

func rowLabel(r *Row) string {
	parts := []string{r.Scheme, r.Topo, r.Workload, "load=" + trimFloat(r.Load), fmt.Sprintf("seed=%d", r.Seed)}
	if r.Fault != "" {
		parts = append(parts, "fault="+r.Fault)
	} else if r.FaultSig != "" {
		parts = append(parts, "fault="+r.FaultSig)
	}
	if r.Shards > 0 {
		parts = append(parts, fmt.Sprintf("shards=%d", r.Shards))
	}
	if r.Options != "" {
		parts = append(parts, r.Options)
	}
	return strings.Join(parts, " ")
}

// Diff compares candidate against baseline under tol. metrics selects
// the gated set (nil = DiffMetrics); perf metrics ride along
// informationally either way.
func Diff(baseline, candidate *Index, tol Tolerance, metrics []string) (*DiffReport, error) {
	if metrics == nil {
		metrics = DiffMetrics
	}
	known := map[string]bool{}
	for _, n := range ColumnNames() {
		known[n] = true
	}
	for _, m := range metrics {
		if !known[m] {
			return nil, fmt.Errorf("lake: unknown diff metric %q", m)
		}
	}
	base := map[string]*Row{}
	for i := range baseline.Rows {
		base[rowKey(&baseline.Rows[i])] = &baseline.Rows[i]
	}
	rep := &DiffReport{}
	seen := map[string]bool{}
	for i := range candidate.Rows {
		cur := &candidate.Rows[i]
		key := rowKey(cur)
		seen[key] = true
		b, ok := base[key]
		if !ok {
			rep.MissingBaseline = append(rep.MissingBaseline, rowLabel(cur))
			continue
		}
		rd := RowDiff{ID: key, Label: rowLabel(cur)}
		compare := func(m string, gated bool) {
			_, bv, _, _ := value(b, m)
			_, cv, _, _ := value(cur, m)
			md := MetricDelta{Metric: m, Base: bv, Cur: cv}
			if bv != 0 {
				md.DeltaPct = (cv - bv) / bv * 100
			}
			md.Drifted = gated && !tol.Within(bv, cv)
			if md.Drifted {
				rd.Drifted = true
			}
			if md.Drifted || bv != cv {
				rd.Deltas = append(rd.Deltas, md)
			}
		}
		for _, m := range metrics {
			compare(m, true)
		}
		for _, m := range PerfMetrics {
			compare(m, false)
		}
		rep.Matched++
		if rd.Drifted {
			rep.Drifted++
		}
		if rd.Drifted || len(rd.Deltas) > 0 {
			rep.Rows = append(rep.Rows, rd)
		}
	}
	for i := range baseline.Rows {
		if key := rowKey(&baseline.Rows[i]); !seen[key] {
			rep.MissingCandidate = append(rep.MissingCandidate, rowLabel(&baseline.Rows[i]))
		}
	}
	sort.Slice(rep.Rows, func(i, j int) bool {
		if rep.Rows[i].Drifted != rep.Rows[j].Drifted {
			return rep.Rows[i].Drifted
		}
		return rep.Rows[i].Label < rep.Rows[j].Label
	})
	sort.Strings(rep.MissingBaseline)
	sort.Strings(rep.MissingCandidate)
	return rep, nil
}

// WriteText renders the report for terminals: the verdict, every
// drifted scenario with its offending metrics, then informational
// deltas.
func (d *DiffReport) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	verdict := "CLEAN"
	if !d.Clean() {
		verdict = "DRIFT"
	}
	fmt.Fprintf(bw, "%s: %d scenarios matched, %d drifted, %d only in baseline, %d only in candidate\n",
		verdict, d.Matched, d.Drifted, len(d.MissingCandidate), len(d.MissingBaseline))
	for _, rd := range d.Rows {
		tag := "info "
		if rd.Drifted {
			tag = "DRIFT"
		}
		fmt.Fprintf(bw, "%s %s\n", tag, rd.Label)
		for _, md := range rd.Deltas {
			mark := ""
			if md.Drifted {
				mark = "  <-- drift"
			}
			fmt.Fprintf(bw, "      %-16s %14s -> %-14s %+7.2f%%%s\n",
				md.Metric, trimFloat(md.Base), trimFloat(md.Cur), md.DeltaPct, mark)
		}
	}
	for _, l := range d.MissingCandidate {
		fmt.Fprintf(bw, "MISSING in candidate: %s\n", l)
	}
	for _, l := range d.MissingBaseline {
		fmt.Fprintf(bw, "new in candidate: %s\n", l)
	}
	return bw.Flush()
}
