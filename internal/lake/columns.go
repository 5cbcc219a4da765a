package lake

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
)

// The on-disk index is genuinely columnar: one JSON object holding a
// vector per column, in three typed families. Readers that predate a
// column see it as absent and decode zeros; readers that postdate one
// ignore it — so the lake index evolves the same way the JSONL artifact
// schema does.

// LakeSchema versions the index file layout.
const LakeSchema = 1

// column is one tagged Row field: its wire name, its family (the
// field's kind: String, Int64, Float64 or Bool) and its index in Row. A
// tag on a field of another kind, or one name on two fields, fails
// TestEveryFieldRoundTrips. "schema", the untagged Row.Schema, is a
// column of kind Int that only queries and diffs see.
type column struct {
	name  string
	kind  reflect.Kind
	field int
}

// columns is the full Row schema, in field order, which is also the
// export and ColumnNames order; byName finds them, and "schema", by
// name.
var columns, byName = rowColumns()

func rowColumns() ([]column, map[string]column) {
	t := reflect.TypeFor[Row]()
	schema, _ := t.FieldByName("Schema")
	byName := map[string]column{"schema": {"schema", reflect.Int, schema.Index[0]}}
	var cols []column
	for i := range t.NumField() {
		if name := t.Field(i).Tag.Get("lake"); name != "" {
			c := column{name, t.Field(i).Type.Kind(), i}
			cols = append(cols, c)
			byName[name] = c
		}
	}
	return cols, byName
}

// of is column c of r.
func (c column) of(r *Row) reflect.Value { return reflect.ValueOf(r).Elem().Field(c.field) }

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
	for _, c := range columns {
		switch c.kind {
		case reflect.String:
			out.Strings[c.name] = gather[string](ix.Rows, c)
		case reflect.Int64:
			out.Ints[c.name] = gather[int64](ix.Rows, c)
		case reflect.Float64:
			out.Floats[c.name] = gather[float64](ix.Rows, c)
		case reflect.Bool:
			out.Bools[c.name] = gather[bool](ix.Rows, c)
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
	for _, c := range columns {
		switch c.kind {
		case reflect.String:
			scatter(ix.Rows, c, in.Strings[c.name])
		case reflect.Int64:
			scatter(ix.Rows, c, in.Ints[c.name])
		case reflect.Float64:
			scatter(ix.Rows, c, in.Floats[c.name])
		case reflect.Bool:
			scatter(ix.Rows, c, in.Bools[c.name])
		}
	}
	return ix, nil
}

// gather reads column c of every row into one vector.
func gather[T any](rows []Row, c column) []T {
	col := make([]T, len(rows))
	v := reflect.ValueOf(col)
	for i := range rows {
		v.Index(i).Set(c.of(&rows[i]))
	}
	return col
}

// scatter writes a column vector back into the rows, truncated to the
// row count so a hand-edited index with a long column cannot index out
// of range.
func scatter[T any](rows []Row, c column, col []T) {
	v := reflect.ValueOf(col[:min(len(col), len(rows))])
	for i := range v.Len() {
		c.of(&rows[i]).Set(v.Index(i))
	}
}

// WriteTo persists the index inside a lake directory.
func (ix *Index) WriteTo(dir string) error {
	return ix.WriteFile(filepath.Join(dir, IndexFile))
}

// value returns the named column of a row as a display string and,
// when numeric, its float value. ok is false for unknown columns.
func value(r *Row, name string) (s string, f float64, numeric, ok bool) {
	c, ok := byName[name]
	if !ok {
		return "", 0, false, false
	}
	v := c.of(r)
	switch v.Kind() {
	case reflect.String:
		return v.String(), 0, false, true
	case reflect.Float64:
		return trimFloat(v.Float()), v.Float(), true, true
	case reflect.Bool:
		return strconv.FormatBool(v.Bool()), number(v), true, true
	}
	return strconv.FormatInt(v.Int(), 10), number(v), true, true
}

// number reads a numeric column as a float; a bool reads 1 or 0.
func number(v reflect.Value) float64 {
	switch v.Kind() {
	case reflect.Float64:
		return v.Float()
	case reflect.Bool:
		if v.Bool() {
			return 1
		}
		return 0
	}
	return float64(v.Int())
}

// ColumnNames lists every queryable run column.
func ColumnNames() []string {
	names := make([]string, 0, len(columns)+1)
	for _, c := range columns {
		names = append(names, c.name)
	}
	return append(names, "schema")
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
