package lake

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// The on-disk index is genuinely columnar: one JSON object holding a
// vector per column, in three typed families. Readers that predate a
// column see it as absent and decode zeros; readers that postdate one
// ignore it — so the lake index evolves the same way the JSONL artifact
// schema does.

// LakeSchema versions the index file layout.
const LakeSchema = 1

// column describes one Row column: its wire name plus typed accessors.
// Exactly one get/set pair is non-nil, choosing the column family.
type column struct {
	name string
	gs   func(*Row) *string
	gi   func(*Row) *int64
	gf   func(*Row) *float64
	gb   func(*Row) *bool
}

// runColumns is the full Row schema, in export order. Query strings
// address columns by these names. Row.Schema (a plain int) is the one
// column handled out-of-band, as indexFile.Schema.
var runColumns = []column{
	{name: "id", gs: func(r *Row) *string { return &r.ID }},
	{name: "file", gs: func(r *Row) *string { return &r.File }},
	{name: "sweep", gs: func(r *Row) *string { return &r.Sweep }},
	{name: "scheme", gs: func(r *Row) *string { return &r.Scheme }},
	{name: "topo", gs: func(r *Row) *string { return &r.Topo }},
	{name: "workload", gs: func(r *Row) *string { return &r.Workload }},
	{name: "options", gs: func(r *Row) *string { return &r.Options }},
	{name: "fault", gs: func(r *Row) *string { return &r.Fault }},
	{name: "fault_sig", gs: func(r *Row) *string { return &r.FaultSig }},
	{name: "workload_plan", gs: func(r *Row) *string { return &r.WlPlan }},
	{name: "workload_plan_sig", gs: func(r *Row) *string { return &r.WlPlanSig }},
	{name: "revision", gs: func(r *Row) *string { return &r.Revision }},
	{name: "salvaged", gb: func(r *Row) *bool { return &r.Salvaged }},
	{name: "seed", gi: func(r *Row) *int64 { return &r.Seed }},
	{name: "shards", gi: func(r *Row) *int64 { return &r.Shards }},
	{name: "load", gf: func(r *Row) *float64 { return &r.Load }},
	{name: "deployment", gf: func(r *Row) *float64 { return &r.Deploy }},
	{name: "wq", gf: func(r *Row) *float64 { return &r.WQ }},
	{name: "red_kb", gi: func(r *Row) *int64 { return &r.RedKB }},
	{name: "duration_ps", gi: func(r *Row) *int64 { return &r.DurationPs }},
	{name: "flows", gi: func(r *Row) *int64 { return &r.Flows }},
	{name: "completed", gi: func(r *Row) *int64 { return &r.Completed }},
	{name: "goodput_gbps", gf: func(r *Row) *float64 { return &r.GoodputGbps }},
	{name: "avg_fct_us", gf: func(r *Row) *float64 { return &r.AvgFCTUs }},
	{name: "fct_p50_us", gf: func(r *Row) *float64 { return &r.FCTP50Us }},
	{name: "fct_p99_us", gf: func(r *Row) *float64 { return &r.FCTP99Us }},
	{name: "fct_max_us", gf: func(r *Row) *float64 { return &r.FCTMaxUs }},
	{name: "last_finish_us", gf: func(r *Row) *float64 { return &r.LastFinishUs }},
	{name: "p99_small_us", gf: func(r *Row) *float64 { return &r.P99SmallUs }},
	{name: "p99_small_legacy_us", gf: func(r *Row) *float64 { return &r.P99SmallLegacyUs }},
	{name: "p99_small_new_us", gf: func(r *Row) *float64 { return &r.P99SmallNewUs }},
	{name: "std_small_legacy_us", gf: func(r *Row) *float64 { return &r.StdSmallLegacyUs }},
	{name: "std_small_new_us", gf: func(r *Row) *float64 { return &r.StdSmallNewUs }},
	{name: "reorder_kb", gf: func(r *Row) *float64 { return &r.ReorderKB }},
	{name: "redundant_frac", gf: func(r *Row) *float64 { return &r.RedundantFrac }},
	{name: "legacy_starved_frac", gf: func(r *Row) *float64 { return &r.LegacyStarvedFrac }},
	{name: "q1_avg_b", gi: func(r *Row) *int64 { return &r.Q1AvgB }},
	{name: "q1_p90_b", gi: func(r *Row) *int64 { return &r.Q1P90B }},
	{name: "q1_red_avg_b", gi: func(r *Row) *int64 { return &r.Q1RedAvgB }},
	{name: "q1_red_p90_b", gi: func(r *Row) *int64 { return &r.Q1RedP90B }},
	{name: "timeouts", gi: func(r *Row) *int64 { return &r.Timeouts }},
	{name: "retransmits", gi: func(r *Row) *int64 { return &r.Retransmits }},
	{name: "credits_issued", gi: func(r *Row) *int64 { return &r.CreditsIss }},
	{name: "credits_wasted", gi: func(r *Row) *int64 { return &r.CreditsWaste }},
	{name: "drops_red", gi: func(r *Row) *int64 { return &r.DropsRed }},
	{name: "drops_total", gi: func(r *Row) *int64 { return &r.DropsTotal }},
	{name: "fault_actions", gi: func(r *Row) *int64 { return &r.FaultActions }},
	{name: "fault_drops", gi: func(r *Row) *int64 { return &r.FaultDrops }},
	{name: "tenants", gi: func(r *Row) *int64 { return &r.Tenants }},
	{name: "coflows", gi: func(r *Row) *int64 { return &r.Coflows }},
	{name: "coflows_done", gi: func(r *Row) *int64 { return &r.CoflowsDone }},
	{name: "cct_p99_us", gf: func(r *Row) *float64 { return &r.CCTP99Us }},
	{name: "violations", gi: func(r *Row) *int64 { return &r.Violations }},
	{name: "violations_dropped", gi: func(r *Row) *int64 { return &r.VioDropped }},
	{name: "events", gi: func(r *Row) *int64 { return &r.Events }},
	{name: "wall_ms", gf: func(r *Row) *float64 { return &r.WallMS }},
	{name: "events_per_sec", gf: func(r *Row) *float64 { return &r.EventsPerSec }},
}

// indexFile is the on-disk columnar envelope.
type indexFile struct {
	LakeSchema int                  `json:"lake_schema"`
	Rows       int                  `json:"rows"`
	Schema     []int                `json:"schema_col,omitempty"` // Row.Schema per row
	Strings    map[string][]string  `json:"strings,omitempty"`
	Ints       map[string][]int64   `json:"ints,omitempty"`
	Floats     map[string][]float64 `json:"floats,omitempty"`
	Bools      map[string][]bool    `json:"bools,omitempty"`
	Bench      []BenchRow           `json:"bench,omitempty"`
}

// WriteFile persists the index at path in columnar form, atomically
// (tmp + rename) so a crashed writer never leaves a torn index.
func (ix *Index) WriteFile(path string) error {
	out := indexFile{
		LakeSchema: LakeSchema,
		Rows:       len(ix.Rows),
		Strings:    map[string][]string{},
		Ints:       map[string][]int64{},
		Floats:     map[string][]float64{},
		Bools:      map[string][]bool{},
		Bench:      ix.Bench,
	}
	out.Schema = make([]int, len(ix.Rows))
	for i := range ix.Rows {
		out.Schema[i] = ix.Rows[i].Schema
	}
	for _, c := range runColumns {
		switch {
		case c.gs != nil:
			col := make([]string, len(ix.Rows))
			for i := range ix.Rows {
				col[i] = *c.gs(&ix.Rows[i])
			}
			out.Strings[c.name] = col
		case c.gi != nil:
			col := make([]int64, len(ix.Rows))
			for i := range ix.Rows {
				col[i] = *c.gi(&ix.Rows[i])
			}
			out.Ints[c.name] = col
		case c.gf != nil:
			col := make([]float64, len(ix.Rows))
			for i := range ix.Rows {
				col[i] = *c.gf(&ix.Rows[i])
			}
			out.Floats[c.name] = col
		case c.gb != nil:
			col := make([]bool, len(ix.Rows))
			for i := range ix.Rows {
				col[i] = *c.gb(&ix.Rows[i])
			}
			out.Bools[c.name] = col
		}
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(out); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// ReadFile loads a columnar index written by WriteFile. Columns the
// file lacks decode as zeros; columns this build does not know are
// ignored.
func ReadFile(path string) (*Index, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var in indexFile
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("lake: parsing %s: %w", path, err)
	}
	if in.LakeSchema > LakeSchema {
		return nil, fmt.Errorf("lake: %s has lake schema %d, this build reads <= %d", path, in.LakeSchema, LakeSchema)
	}
	ix := &Index{Rows: make([]Row, in.Rows), Bench: in.Bench}
	for i := range ix.Rows {
		if i < len(in.Schema) {
			ix.Rows[i].Schema = in.Schema[i]
		}
	}
	for _, c := range runColumns {
		switch {
		case c.gs != nil:
			for i, v := range clampCol(in.Strings[c.name], in.Rows) {
				*c.gs(&ix.Rows[i]) = v
			}
		case c.gi != nil:
			for i, v := range clampCol(in.Ints[c.name], in.Rows) {
				*c.gi(&ix.Rows[i]) = v
			}
		case c.gf != nil:
			for i, v := range clampCol(in.Floats[c.name], in.Rows) {
				*c.gf(&ix.Rows[i]) = v
			}
		case c.gb != nil:
			for i, v := range clampCol(in.Bools[c.name], in.Rows) {
				*c.gb(&ix.Rows[i]) = v
			}
		}
	}
	return ix, nil
}

// clampCol truncates a column to the row count so a hand-edited index
// with a long column cannot index out of range.
func clampCol[T any](col []T, n int) []T {
	if len(col) > n {
		return col[:n]
	}
	return col
}

// WriteTo persists the index inside a lake directory.
func (ix *Index) WriteTo(dir string) error {
	return ix.WriteFile(filepath.Join(dir, IndexFile))
}

// value returns the named column of a row as a display string and,
// when numeric, its float value. ok is false for unknown columns.
func value(r *Row, name string) (s string, f float64, numeric, ok bool) {
	if name == "schema" {
		return fmt.Sprintf("%d", r.Schema), float64(r.Schema), true, true
	}
	for _, c := range runColumns {
		if c.name != name {
			continue
		}
		switch {
		case c.gs != nil:
			return *c.gs(r), 0, false, true
		case c.gi != nil:
			v := *c.gi(r)
			return fmt.Sprintf("%d", v), float64(v), true, true
		case c.gf != nil:
			v := *c.gf(r)
			return trimFloat(v), v, true, true
		case c.gb != nil:
			v := *c.gb(r)
			if v {
				return "true", 1, true, true
			}
			return "false", 0, true, true
		}
	}
	return "", 0, false, false
}

// ColumnNames lists every queryable run column.
func ColumnNames() []string {
	names := make([]string, 0, len(runColumns)+1)
	for _, c := range runColumns {
		names = append(names, c.name)
	}
	names = append(names, "schema")
	return names
}

// trimFloat renders a float compactly ("0.5", not "0.500000").
func trimFloat(v float64) string {
	return trimZeros(fmt.Sprintf("%.6f", v))
}

func trimZeros(s string) string {
	for len(s) > 0 && s[len(s)-1] == '0' {
		s = s[:len(s)-1]
	}
	if len(s) > 0 && s[len(s)-1] == '.' {
		s = s[:len(s)-1]
	}
	return s
}
