package lake

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"math"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"

	"flexpass/internal/obs"
)

// The query layer answers filter / group-by / aggregate questions over
// the run table — `flexfarm query` is a thin shell around it. A paper
// figure like "p99 slowdown by scheme × load" is
//
//	Query{GroupBy: []string{"scheme", "load"},
//	      Aggs:    []Agg{{Col: "fct_p99_us", Fn: "mean"}}}

// Op is a filter comparison operator.
type Op string

// Filter operators. String columns support Eq/Ne with path.Match
// globs; numeric columns compare numerically.
const (
	OpEq Op = "="
	OpNe Op = "!="
	OpLt Op = "<"
	OpLe Op = "<="
	OpGt Op = ">"
	OpGe Op = ">="
)

// Cond is one filter condition on a column.
type Cond struct {
	Col string
	Op  Op
	Arg string
}

// ParseCond parses "col=value", "col!=value", "col>=value", ... The
// two-character operators are tried first so "!=" never parses as "=".
func ParseCond(s string) (Cond, error) {
	for _, op := range []Op{OpNe, OpLe, OpGe, OpEq, OpLt, OpGt} {
		if i := strings.Index(s, string(op)); i > 0 {
			return Cond{Col: strings.TrimSpace(s[:i]), Op: op,
				Arg: strings.TrimSpace(s[i+len(op):])}, nil
		}
	}
	return Cond{}, fmt.Errorf("lake: bad condition %q (want col=value, col!=value, col<value, ...)", s)
}

// Match evaluates the condition against a row. Unknown columns match
// nothing (the query layer surfaces them via Query.validate).
func (c Cond) Match(r *Row) bool {
	s, f, numeric, ok := value(r, c.Col)
	if !ok {
		return false
	}
	if numeric {
		arg, err := strconv.ParseFloat(c.Arg, 64)
		if err == nil {
			switch c.Op {
			case OpEq:
				return f == arg
			case OpNe:
				return f != arg
			case OpLt:
				return f < arg
			case OpLe:
				return f <= arg
			case OpGt:
				return f > arg
			case OpGe:
				return f >= arg
			}
		}
		// Fall through to string comparison for non-numeric args
		// (e.g. salvaged=true).
	}
	eq := s == c.Arg
	if !eq && (c.Op == OpEq || c.Op == OpNe) {
		if m, err := path.Match(c.Arg, s); err == nil && m {
			eq = true
		}
	}
	switch c.Op {
	case OpEq:
		return eq
	case OpNe:
		return !eq
	case OpLt:
		return s < c.Arg
	case OpLe:
		return s <= c.Arg
	case OpGt:
		return s > c.Arg
	case OpGe:
		return s >= c.Arg
	}
	return false
}

// Agg is one aggregate: a function over a numeric column per group.
type Agg struct {
	Col string
	Fn  string // mean, sum, min, max, count, p50, p90, p99
}

// ParseAggs parses a comma-separated "col:fn,col:fn" list. A bare
// column defaults to mean; the pseudo-aggregate "count" needs no
// column.
func ParseAggs(s string) ([]Agg, error) {
	var out []Agg
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		col, fn, ok := strings.Cut(part, ":")
		if !ok {
			fn = "mean"
		}
		if col == "count" {
			col, fn = "", "count"
		}
		switch fn {
		case "mean", "sum", "min", "max", "count", "p50", "p90", "p99":
		default:
			return nil, fmt.Errorf("lake: unknown aggregate %q (want mean,sum,min,max,count,p50,p90,p99)", fn)
		}
		out = append(out, Agg{Col: col, Fn: fn})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("lake: empty aggregate list")
	}
	return out, nil
}

func (a Agg) label() string {
	if a.Fn == "count" {
		return "count"
	}
	return a.Fn + "(" + a.Col + ")"
}

// apply reduces the group's values.
func (a Agg) apply(vals []float64) float64 {
	if a.Fn == "count" {
		return float64(len(vals))
	}
	if len(vals) == 0 {
		return math.NaN()
	}
	switch a.Fn {
	case "sum", "mean":
		var s float64
		for _, v := range vals {
			s += v
		}
		if a.Fn == "sum" {
			return s
		}
		return s / float64(len(vals))
	case "min":
		m := vals[0]
		for _, v := range vals[1:] {
			if v < m {
				m = v
			}
		}
		return m
	case "max":
		m := vals[0]
		for _, v := range vals[1:] {
			if v > m {
				m = v
			}
		}
		return m
	case "p50", "p90", "p99":
		p := map[string]float64{"p50": 0.50, "p90": 0.90, "p99": 0.99}[a.Fn]
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		rank := int(p * float64(len(sorted)))
		if rank >= len(sorted) {
			rank = len(sorted) - 1
		}
		return sorted[rank]
	}
	return math.NaN()
}

// Query is one filter/group-by/aggregate request over the run table.
type Query struct {
	Where   []Cond
	GroupBy []string
	Aggs    []Agg
}

// Table is a query result: a header row plus data rows, group keys
// first, one aggregate column each after.
type Table struct {
	Header []string
	Rows   [][]string
}

// validate rejects unknown column names up front, so a typo'd query
// errors instead of silently matching nothing.
func (q Query) validate() error {
	known := func(name string) bool { _, ok := byName[name]; return ok }
	for _, c := range q.Where {
		if !known(c.Col) {
			return fmt.Errorf("lake: unknown filter column %q", c.Col)
		}
	}
	for _, g := range q.GroupBy {
		if !known(g) {
			return fmt.Errorf("lake: unknown group-by column %q", g)
		}
	}
	for _, a := range q.Aggs {
		if a.Fn == "count" {
			continue
		}
		if !known(a.Col) {
			return fmt.Errorf("lake: unknown aggregate column %q", a.Col)
		}
	}
	return nil
}

// Run executes the query against the index's run table.
func (ix *Index) Run(q Query) (*Table, error) {
	if len(q.Aggs) == 0 {
		q.Aggs = []Agg{{Fn: "count"}}
	}
	if err := q.validate(); err != nil {
		return nil, err
	}
	// A group sorts by its keys in group-by order: a numeric column's by
	// value, a string column's as a string.
	type group struct {
		keys []string
		nums []float64
		vals [][]float64 // one slice per aggregate
	}
	groups := map[string]*group{}
	var order []*group
	for _, r := range ix.where(q.Where) {
		keys, nums := make([]string, len(q.GroupBy)), make([]float64, len(q.GroupBy))
		for j, col := range q.GroupBy {
			keys[j], nums[j], _, _ = value(r, col)
		}
		gk := strings.Join(keys, "\x00")
		g, ok := groups[gk]
		if !ok {
			g = &group{keys: keys, nums: nums, vals: make([][]float64, len(q.Aggs))}
			groups[gk] = g
			order = append(order, g)
		}
		for j, a := range q.Aggs {
			if a.Fn == "count" {
				g.vals[j] = append(g.vals[j], 0)
				continue
			}
			_, f, numeric, _ := value(r, a.Col)
			if numeric {
				g.vals[j] = append(g.vals[j], f)
			}
		}
	}
	slices.SortFunc(order, func(a, b *group) int {
		for j := range a.keys {
			if c := cmp.Or(cmp.Compare(a.nums[j], b.nums[j]), strings.Compare(a.keys[j], b.keys[j])); c != 0 {
				return c
			}
		}
		return 0
	})
	t := &Table{}
	t.Header = append(t.Header, q.GroupBy...)
	for _, a := range q.Aggs {
		t.Header = append(t.Header, a.label())
	}
	for _, g := range order {
		row := append([]string(nil), g.keys...)
		for j, a := range q.Aggs {
			row = append(row, trimFloat(a.apply(g.vals[j])))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// where returns the rows every condition matches.
func (ix *Index) where(conds []Cond) []*Row {
	var out []*Row
	for i := range ix.Rows {
		if !slices.ContainsFunc(conds, func(c Cond) bool { return !c.Match(&ix.Rows[i]) }) {
			out = append(out, &ix.Rows[i])
		}
	}
	return out
}

// Artifact reads the artifact of the one row where selects from the lake
// directory dir: its runs/, or a sub-lake's (dir/*/runs/, the layout
// `make fig-csvs` queries).
func (ix *Index) Artifact(dir string, where []Cond) (*obs.Run, error) {
	if err := (Query{Where: where}).validate(); err != nil {
		return nil, err
	}
	rows := ix.where(where)
	if len(rows) != 1 {
		return nil, fmt.Errorf("lake: the filter selects %d runs, want exactly one", len(rows))
	}
	paths, err := filepath.Glob(filepath.Join(dir, RunsDir, rows[0].File))
	if err == nil && len(paths) == 0 {
		paths, err = filepath.Glob(filepath.Join(dir, "*", RunsDir, rows[0].File))
	}
	if err != nil || len(paths) == 0 {
		return nil, fmt.Errorf("lake: no artifact %s under %s", rows[0].File, dir)
	}
	return obs.ReadJSONLFile(paths[0])
}

// WriteText renders the table column-aligned for terminals.
func (t *Table) WriteText(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	bw := bufio.NewWriter(w)
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				fmt.Fprint(bw, "  ")
			}
			fmt.Fprintf(bw, "%-*s", widths[i], cell)
		}
		fmt.Fprintln(bw)
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return bw.Flush()
}

// WriteCSV renders the table as CSV (cells never contain commas: group
// keys are column values and aggregates are numbers).
func (t *Table) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, strings.Join(t.Header, ","))
	for _, row := range t.Rows {
		fmt.Fprintln(bw, strings.Join(row, ","))
	}
	return bw.Flush()
}
