// Package lake is the repo's queryable result store: it ingests the obs
// JSONL run artifacts a sweep produces into a flat, columnar index
// persisted on disk, and answers filter/group-by/aggregate queries and
// cross-run regression diffs over it. One row per run; every manifest
// dimension (scheme, options, topology, workload, load, deployment, wq,
// red_kb, seed, fault plan, revision) is a queryable column, and the headline
// metrics are derived at ingest time: every per-flow statistic (flow
// counts, goodput, exact FCT order statistics with the paper's small-flow
// breakdowns) by metrics.Summarize over the artifact's flow lines, drops
// by cause, credits and coflows from its counters — so every paper figure
// is one query and every regression one diff.
//
// Damaged artifacts are not lost: ingestion rides obs.ReadJSONL's
// salvage path, keeping whatever prefix parses and marking the row
// Salvaged so queries can include or exclude crashed runs explicitly.
package lake

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"flexpass/internal/metrics"
	"flexpass/internal/obs"
	"flexpass/internal/sim"
)

// Row is one run flattened into the lake's schema. Dimension columns
// come from the manifest; metric columns are derived from the
// artifact's flow lines, counters, histograms, and fault lines.
//
// Each field's `lake` tag is its column: the name queries, diffs and
// the index file address it by. The field's type picks the column's
// family (string, int64, float64 or bool), field order is ColumnNames'
// order, and every numeric column but PerfMetrics is gated by Diff.
// Schema, untagged, is the one field the index holds out-of-band.
type Row struct {
	// Identity dimensions.
	ID        string  `lake:"id"`   // scenario content hash (config "scenario_hash") or artifact stem
	File      string  `lake:"file"` // artifact basename the row was ingested from
	Schema    int     // artifact schema version
	Sweep     string  `lake:"sweep"` // sweep name (config "sweep"), if farmed
	Scheme    string  `lake:"scheme"`
	Topo      string  `lake:"topo"` // short topology label (config "topo") or manifest topology
	Workload  string  `lake:"workload"`
	Options   string  `lake:"options"`           // canonical "k=v k2=v2" rendering of the scheme options
	Fault     string  `lake:"fault"`             // fault-plan name ("" = clean run)
	FaultSig  string  `lake:"fault_sig"`         // fault-plan content hash
	WlPlan    string  `lake:"workload_plan"`     // workload-plan name ("" = parameter workload)
	WlPlanSig string  `lake:"workload_plan_sig"` // workload-plan content hash (rename-invariant)
	Revision  string  `lake:"revision"`
	Salvaged  bool    `lake:"salvaged"` // artifact was damaged; row built from the salvaged prefix
	Seed      int64   `lake:"seed"`
	Shards    int64   `lake:"shards"` // parallel-engine shard count (0 = single engine)
	Load      float64 `lake:"load"`
	Deploy    float64 `lake:"deployment"`
	WQ        float64 `lake:"wq"`
	RedKB     int64   `lake:"red_kb"` // Q1 selective-drop threshold override in kB (config "red_kb"; 0 = the profile's)

	// Metrics. Flows through RedundantFrac, Timeouts and Retransmits come
	// from the flow lines (FCT statistics over completed flows, "small"
	// under 100 kB); the rest from the manifest, counters, histograms and
	// fault lines.
	DurationPs       int64   `lake:"duration_ps"`
	Flows            int64   `lake:"flows"` // flows started
	Completed        int64   `lake:"completed"`
	GoodputGbps      float64 `lake:"goodput_gbps"` // delivered payload bytes over the run window
	AvgFCTUs         float64 `lake:"avg_fct_us"`
	FCTP50Us         float64 `lake:"fct_p50_us"`
	FCTP99Us         float64 `lake:"fct_p99_us"`
	FCTMaxUs         float64 `lake:"fct_max_us"`     // slowest completed flow
	LastFinishUs     float64 `lake:"last_finish_us"` // latest completion instant
	P99SmallUs       float64 `lake:"p99_small_us"`
	P99SmallLegacyUs float64 `lake:"p99_small_legacy_us"`
	P99SmallNewUs    float64 `lake:"p99_small_new_us"`
	StdSmallLegacyUs float64 `lake:"std_small_legacy_us"`
	StdSmallNewUs    float64 `lake:"std_small_new_us"`
	ReorderKB        float64 `lake:"reorder_kb"`     // mean reordering-buffer high-water mark of upgraded flows
	RedundantFrac    float64 `lake:"redundant_frac"` // duplicate segment volume over delivered volume
	// LegacyStarvedFrac is the share of non-idle SeriesWindow windows in
	// which legacy (DCTCP) traffic got under a fifth of the link rate.
	LegacyStarvedFrac float64 `lake:"legacy_starved_frac"`
	Q1AvgB            int64   `lake:"q1_avg_b"` // ToR-uplink Q1 occupancy, when sampled (manifest q1_*)
	Q1P90B            int64   `lake:"q1_p90_b"`
	Q1RedAvgB         int64   `lake:"q1_red_avg_b"`
	Q1RedP90B         int64   `lake:"q1_red_p90_b"`
	Timeouts          int64   `lake:"timeouts"`
	Retransmits       int64   `lake:"retransmits"`
	CreditsIss        int64   `lake:"credits_issued"`     // credits issued by receivers
	CreditsWaste      int64   `lake:"credits_wasted"`     // credits that arrived with nothing to send
	DropsRed          int64   `lake:"drops_red"`          // selective (red-threshold) drops
	DropsTotal        int64   `lake:"drops_total"`        // all queue drops
	FaultActions      int64   `lake:"fault_actions"`      // applied fault-plan actions (artifact "fault" lines)
	FaultDrops        int64   `lake:"fault_drops"`        // packets destroyed by fault injection
	Tenants           int64   `lake:"tenants"`            // distinct tenant load classes the workload tagged
	Coflows           int64   `lake:"coflows"`            // coflow groups generated (RPC jobs, tagged incasts)
	CoflowsDone       int64   `lake:"coflows_done"`       // coflows whose every member flow completed
	CCTP99Us          float64 `lake:"cct_p99_us"`         // coflow completion time p99 (log-bucket bound)
	Violations        int64   `lake:"violations"`         // auditor violations kept in the artifact ("forensics" violation lines)
	VioDropped        int64   `lake:"violations_dropped"` // violations discarded over the auditor retention cap (manifest violations_dropped)
	Events            int64   `lake:"events"`
	WallMS            float64 `lake:"wall_ms"` // perf self-report; machine-dependent
	EventsPerSec      float64 `lake:"events_per_sec"`
}

// OptionsString canonicalizes a scheme-option map as space-separated
// sorted "k=v" pairs — the form the Options column stores and queries
// match against.
func OptionsString(opts map[string]string) string {
	if len(opts) == 0 {
		return ""
	}
	keys := make([]string, 0, len(opts))
	for k := range opts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + opts[k]
	}
	return strings.Join(parts, " ")
}

// FromRun flattens one parsed artifact into a row. salvaged records
// whether the artifact was damaged (obs.CorruptArtifactError); the row
// is still built from whatever was recovered.
func FromRun(r *obs.Run, file string, salvaged bool) Row {
	m := r.Manifest
	row := Row{
		File:      filepath.Base(file),
		Schema:    m.Schema,
		Salvaged:  salvaged,
		Scheme:    m.Scheme,
		Topo:      m.Topology,
		Workload:  m.Workload,
		Options:   OptionsString(m.SchemeOptions),
		Fault:     m.FaultPlan,
		FaultSig:  m.FaultPlanHash,
		WlPlan:    m.WorkloadPlan,
		WlPlanSig: m.WorkloadPlanHash,
		Revision:  m.Revision,
		Seed:      m.Seed,
		Shards:    int64(m.Shards),
		Load:      m.Load,
		Deploy:    m.Deployment,
		WQ:        m.WQ,

		DurationPs:   m.DurationPs,
		Q1AvgB:       m.Q1AvgB,
		Q1P90B:       m.Q1P90B,
		Q1RedAvgB:    m.Q1RedAvgB,
		Q1RedP90B:    m.Q1RedP90B,
		Events:       int64(m.Events),
		WallMS:       m.WallMS,
		EventsPerSec: m.EventsPerSec,
	}
	row.ID = strings.TrimSuffix(row.File, filepath.Ext(row.File))
	if h := m.Config["scenario_hash"]; h != "" {
		row.ID = h
	}
	if t := m.Config["topo"]; t != "" {
		row.Topo = t
	}
	if s := m.Config["sweep"]; s != "" {
		row.Sweep = s
	}

	f := metrics.Summarize(r.Flows)
	row.Flows, row.Completed = int64(f.Flows), int64(f.Completed)
	row.Timeouts, row.Retransmits = int64(f.Timeouts), int64(f.Retransmits)
	row.GoodputGbps = f.GoodputGbps(sim.Time(m.DurationPs))
	row.AvgFCTUs = f.MeanFCT.Micros()
	row.FCTP50Us, row.FCTP99Us = f.P50FCT.Micros(), f.P99FCT.Micros()
	row.FCTMaxUs, row.LastFinishUs = f.MaxFCT.Micros(), f.LastFinish.Micros()
	row.P99SmallUs = f.P99Small.Micros()
	row.P99SmallLegacyUs, row.P99SmallNewUs = f.P99SmallLegacy.Micros(), f.P99SmallNew.Micros()
	row.StdSmallLegacyUs, row.StdSmallNewUs = f.StdSmallLegacy.Micros(), f.StdSmallNew.Micros()
	row.ReorderKB, row.RedundantFrac = f.ReorderKB, f.RedundantFrac
	row.LegacyStarvedFrac = legacyStarved(r)

	tenants := map[string]bool{}
	for _, c := range r.Counters {
		isTransport := strings.HasPrefix(c.Entity, "transport/")
		isQueue := strings.HasPrefix(c.Entity, "port/") && strings.Contains(c.Entity, "/q")
		isPort := strings.HasPrefix(c.Entity, "port/") && !isQueue
		if strings.HasPrefix(c.Entity, "workload/tenant/") {
			tenants[c.Entity] = true
		}
		switch {
		case isTransport && c.Metric == "credits_issued":
			row.CreditsIss += c.Value
		case isTransport && c.Metric == "credits_wasted":
			row.CreditsWaste += c.Value
		case isQueue && c.Metric == "dropped":
			row.DropsTotal += c.Value
		case isQueue && c.Metric == "dropped_red":
			row.DropsRed += c.Value
		case isPort && c.Metric == "faults_injected":
			row.FaultDrops += c.Value
		case c.Entity == "workload/coflow" && c.Metric == "coflows":
			row.Coflows += c.Value
		case c.Entity == "workload/coflow" && c.Metric == "coflows_done":
			row.CoflowsDone += c.Value
		}
	}
	row.Tenants = int64(len(tenants))
	// Coflow completion times have no flow line; their p99 is a log-bucket
	// upper bound.
	var cctLe, cctN []int64
	for _, h := range r.Hists {
		if h.Entity == "workload/coflow" && h.Metric == "cct_us" {
			cctLe, cctN = obs.MergeSparse(cctLe, cctN, h.Le, h.Counts)
		}
	}
	row.CCTP99Us = float64(obs.SparseQuantile(cctLe, cctN, 0.99))
	row.FaultActions = int64(len(r.Faults))
	for i := range r.Forensics {
		if r.Forensics[i].Violation != nil {
			row.Violations++
		}
	}
	// A nonzero violations_dropped marks the kept violations as a
	// truncated sample: the true count is at least Violations+VioDropped.
	row.VioDropped = m.ViolationsDropped
	row.RedKB, _ = strconv.ParseInt(m.Config["red_kb"], 10, 64) // the farm's stamp; absent reads 0
	return row
}

// Index is the lake: every ingested run row plus the bench table.
type Index struct {
	Rows  []Row
	Bench []BenchRow
}

// IngestFile reads one artifact and appends its row. Damaged artifacts
// are salvaged (Row.Salvaged set); only artifacts whose manifest itself
// was unrecoverable fail.
func (ix *Index) IngestFile(path string) error {
	run, err := obs.ReadJSONLFile(path)
	salvaged := false
	if err != nil {
		var cerr *obs.CorruptArtifactError
		if run == nil || !errors.As(err, &cerr) {
			return fmt.Errorf("lake: ingest %s: %w", path, err)
		}
		if run.Manifest.Schema == 0 {
			return fmt.Errorf("lake: ingest %s: damage precedes the manifest: %w", path, err)
		}
		salvaged = true
	}
	ix.Rows = append(ix.Rows, FromRun(run, path, salvaged))
	return nil
}

// IngestDir ingests every *.jsonl artifact under dir (sorted, so row
// order is stable) and reports per-file errors without aborting the
// scan. It returns how many rows were added.
func (ix *Index) IngestDir(dir string) (int, []error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil {
		return 0, []error{err}
	}
	sort.Strings(paths)
	added := 0
	var errs []error
	for _, p := range paths {
		if err := ix.IngestFile(p); err != nil {
			errs = append(errs, err)
			continue
		}
		added++
	}
	return added, errs
}

// Sort orders rows by (ID, file) so indexes built from the same runs
// compare byte-identically regardless of ingest order, and bench rows
// by (generated_at, source, bench, metric, side), so they read in time
// order.
func (ix *Index) Sort() {
	sort.Slice(ix.Rows, func(i, j int) bool {
		a, b := &ix.Rows[i], &ix.Rows[j]
		if a.ID != b.ID {
			return a.ID < b.ID
		}
		return a.File < b.File
	})
	sort.Slice(ix.Bench, func(i, j int) bool {
		a, b := &ix.Bench[i], &ix.Bench[j]
		return cmp.Or(cmp.Compare(a.GeneratedAt, b.GeneratedAt), cmp.Compare(a.Source, b.Source),
			cmp.Compare(a.Bench, b.Bench), cmp.Compare(a.Metric, b.Metric), cmp.Compare(a.Side, b.Side)) < 0
	})
}

// Load reads a lake from path: either an index file written by
// WriteFile, or a directory containing one (index.json), falling back
// to ingesting the runs/ artifacts when no index exists yet.
func Load(path string) (*Index, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if !fi.IsDir() {
		return ReadFile(path)
	}
	idx := filepath.Join(path, IndexFile)
	if _, err := os.Stat(idx); err == nil {
		return ReadFile(idx)
	}
	ix := &Index{}
	if _, errs := ix.IngestDir(filepath.Join(path, RunsDir)); len(errs) > 0 {
		return nil, errs[0]
	}
	ix.Sort()
	return ix, nil
}

// Canonical lake layout names: <lake>/runs/*.jsonl artifacts indexed
// into <lake>/index.json.
const (
	IndexFile = "index.json"
	RunsDir   = "runs"
)
