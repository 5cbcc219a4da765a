package lake

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"flexpass/internal/planspec"
)

// The bench table makes the perf trajectory queryable alongside the
// run table. A comparison is stored in one shape, the BenchReport `make
// bench-pair` writes, and flattens to one row per (workload, metric,
// side) valued at that side's median and tagged with its revision; the
// standing benchmark's one-sided -ledger file flattens to one row per
// (workload, metric). So "how did observed alloc_mb move across
// BENCH_PR*.json" is one query.

// BenchRow is one benchmark metric observation.
type BenchRow struct {
	Source      string  `json:"source"`             // file basename, e.g. "BENCH_PR27.json"
	Bench       string  `json:"bench"`              // workload or benchmark, e.g. "observed"
	Metric      string  `json:"metric"`             // "alloc_mb", "ns/op", ...
	Side        string  `json:"side,omitempty"`     // "base" or "change"; "" for a ledger
	Revision    string  `json:"revision,omitempty"` // what the side was measured at; "" if unknown
	Value       float64 `json:"value"`
	GeneratedAt string  `json:"generated_at,omitempty"`
}

// Quartiles summarize one side's runs of one metric.
type Quartiles struct {
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

// Comparison is one (workload, metric) row of a BenchReport.
type Comparison struct {
	Better    string    `json:"better"` // "lower" or "higher"
	Base      Quartiles `json:"base"`
	Change    Quartiles `json:"change"`
	DeltaPct  float64   `json:"delta_pct"` // change median against base median
	Wins      int       `json:"wins"`      // pairs the change read better in
	Losses    int       `json:"losses"`    // pairs it read worse in; ties count for neither
	Claimable bool      `json:"claimable"` // a gain the claim rule admits
	Regressed bool      `json:"regressed"` // worse than the base by more than the metric's bound
	BaseRuns  []float64 `json:"base_runs"` // empty when only the change measured the metric
	Runs      []float64 `json:"change_runs"`
}

// BenchWorkload is one workload's rows, plus what each side's runs
// printed as their flow digests (one, if behaviour is unchanged across
// runs) and the most operations one run failed.
type BenchWorkload struct {
	BaseDigests   []string               `json:"base_digests"`
	ChangeDigests []string               `json:"change_digests"`
	BaseFailed    int                    `json:"base_failed"`
	ChangeFailed  int                    `json:"change_failed"`
	Metrics       map[string]*Comparison `json:"metrics"`
}

// BenchReport is a change measured against a base revision in
// alternating pairs: the file `make bench-pair` writes and every
// checked-in BENCH_PR<N>.json holds.
type BenchReport struct {
	GeneratedAt    string                    `json:"generated_at"`
	Base           string                    `json:"base"`
	BaseRevision   string                    `json:"base_revision"`
	ChangeRevision string                    `json:"change_revision"`
	Seed           int64                     `json:"seed"`
	Pairs          int                       `json:"pairs"`
	CPUs           int                       `json:"cpus"`
	Workloads      map[string]*BenchWorkload `json:"workloads"`
}

// benchLedger is the standing benchmark's one-sided -ledger file.
type benchLedger struct {
	GeneratedAt string                        `json:"generated_at"`
	GoOS        string                        `json:"goos"`
	GoArch      string                        `json:"goarch"`
	Revision    string                        `json:"revision"`
	Seed        int64                         `json:"seed"`
	Benchmarks  map[string]map[string]float64 `json:"benchmarks"`
}

// IngestBenchFile appends one bench-pair report or bench ledger to the
// bench table, decoding either strictly. Rows land unordered; Sort
// orders them.
func (ix *Index) IngestBenchFile(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		return 0, fmt.Errorf("lake: parsing bench file %s: %w", path, err)
	}
	n, src := len(ix.Bench), filepath.Base(path)
	add := func(at, bench, metric, side, rev string, v float64) {
		ix.Bench = append(ix.Bench, BenchRow{Source: src, Bench: bench, Metric: metric,
			Side: side, Revision: rev, Value: v, GeneratedAt: at})
	}
	switch {
	case keys["workloads"] != nil:
		var rep BenchReport
		if err := planspec.DecodeStrict(data, &rep); err != nil {
			return 0, fmt.Errorf("lake: bench-pair report %s: %w", path, err)
		}
		for w, wr := range rep.Workloads {
			for m, c := range wr.Metrics {
				if len(c.BaseRuns) > 0 {
					add(rep.GeneratedAt, w, m, "base", rep.BaseRevision, c.Base.Median)
				}
				if len(c.Runs) > 0 {
					add(rep.GeneratedAt, w, m, "change", rep.ChangeRevision, c.Change.Median)
				}
			}
		}
	case keys["benchmarks"] != nil:
		var l benchLedger
		if err := planspec.DecodeStrict(data, &l); err != nil {
			return 0, fmt.Errorf("lake: bench ledger %s: %w", path, err)
		}
		for b, ms := range l.Benchmarks {
			for m, v := range ms {
				add(l.GeneratedAt, b, m, "", l.Revision, v)
			}
		}
	default:
		return 0, fmt.Errorf("lake: %s is neither a bench-pair report nor a bench ledger", path)
	}
	if len(ix.Bench) == n {
		return 0, fmt.Errorf("lake: %s has no benchmarks", path)
	}
	return len(ix.Bench) - n, nil
}

// BenchTable renders the bench table, optionally filtered by glob-free
// equality on bench and metric ("" matches all).
func (ix *Index) BenchTable(bench, metric string) *Table {
	t := &Table{Header: []string{"source", "bench", "metric", "side", "revision", "value"}}
	for _, r := range ix.Bench {
		if bench != "" && r.Bench != bench {
			continue
		}
		if metric != "" && r.Metric != metric {
			continue
		}
		t.Rows = append(t.Rows, []string{r.Source, r.Bench, r.Metric, r.Side, r.Revision, trimFloat(r.Value)})
	}
	return t
}
