package obs_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flexpass/internal/lake"
	"flexpass/internal/obs"
)

// FuzzReadJSONL drives arbitrary bytes through the artifact reader and
// the lake's ingest path. The contract under fuzz: neither may panic,
// and every read failure is typed — a *CorruptArtifactError carrying
// the salvaged prefix, or the no-manifest error with a nil run. The
// lake must either ingest a row or return an error wrapping the same
// typed failure, never a mangled row from unrecovered damage.
//
// Series values decode through obs.Samples' own UnmarshalJSON, so the
// same bytes also go through it differentially against a []int64 — bare
// and as the values of a series line — and must be taken or refused
// alike: a decoder that is stricter turns a readable line into damage,
// one that is laxer reads a damaged line as clean.
func FuzzReadJSONL(f *testing.F) {
	// Corpus: a valid three-line artifact, truncation, mid-line damage,
	// a bare manifest, binary garbage, pathological JSON shapes, and an
	// artifact from before the schema floor.
	valid := `{"type":"manifest","manifest":{"schema":5,"scheme":"flexpass","seed":1}}` + "\n" +
		`{"type":"flow","flow":{"id":1,"size":5000,"start_ps":10,"fct_ps":900,"completed":true,"transport":"flexpass","rx_bytes":5000}}` + "\n" +
		`{"type":"counter","counter":{"entity":"transport/agent","metric":"stray_packets","value":3}}` + "\n"
	f.Add([]byte(valid))
	f.Add([]byte(valid[:len(valid)/2]))
	f.Add([]byte(`{"type":"manifest","manifest":{"schema":5}}` + "\n" + `{"type":"counter","counter":` + "\n"))
	f.Add([]byte(`{"type":"manifest","manifest":{"schema":5}}`))
	f.Add([]byte("\x00\x01\x02garbage\xff"))
	f.Add([]byte(`{"type":"series","series":{}}` + "\n"))
	f.Add([]byte(`{"type":123}` + "\n"))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte(`{"type":"manifest","manifest":{"schema":5}}` + "\n" + strings.Repeat("x", 4096) + "\n"))
	f.Add([]byte(`{"type":"manifest","manifest":{"schema":5}}` + "\n" + `{"type":"series","series":{"entity":"e","values":[0,0,0,-4,7]}}` + "\n"))
	f.Add([]byte(`{"type":"manifest","manifest":{"schema":5}}` + "\n" + `{"type":"hist","hist":{"entity":"transport/x","metric":"fct_us","count":1,"le":[64,128],"counts":[1]}}` + "\n"))
	f.Add([]byte(`{"type":"manifest","manifest":{"schema":99}}` + "\n" + `{"type":"counter","counter":{"entity":"e","metric":"m","value":3}}` + "\n"))
	f.Add([]byte(`{"type":"manifest","manifest":{"schema":5}}` + "\n" + `{"type":"flow","flow":{"id":"x"}}` + "\n"))
	f.Add([]byte(`{"type":"manifest","manifest":{"schema":4}}` + "\n" + `{"type":"flow","flow":{"id":1,"fct_ps":-1}}` + "\n"))
	for _, values := range []string{
		`[0,0,0,5,5,-3]`, ` [ 1 , 2 ] `, `[]`, `null`, `[null,1]`, `[1.5]`, `[1e3]`, `["1"]`, `[[1]]`,
		`[9223372036854775808]`, `[-9223372036854775808]`, `[01]`, `[1,]`, `[1`, `[1],"values":[2]`, `[1]}},"x":{"y":{"values":[2]`,
	} {
		f.Add([]byte(values))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		samplesDifferential(t, data)
		run, err := obs.ReadJSONL(bytes.NewReader(data))
		if err != nil {
			var cerr *obs.CorruptArtifactError
			switch {
			case errors.As(err, &cerr):
				if run == nil {
					t.Fatalf("CorruptArtifactError without a salvaged run: %v", err)
				}
			case run == nil:
				// The no-manifest (or scanner) failure: nothing salvaged.
			default:
				t.Fatalf("untyped read error with a non-nil run: %v", err)
			}
		}

		p := filepath.Join(t.TempDir(), "fuzz.jsonl")
		if werr := os.WriteFile(p, data, 0o644); werr != nil {
			t.Fatal(werr)
		}
		ix := &lake.Index{}
		before := len(ix.Rows)
		ingestErr := ix.IngestFile(p)
		if ingestErr == nil && len(ix.Rows) != before+1 {
			t.Fatalf("ingest reported success but added %d rows", len(ix.Rows)-before)
		}
		// An artifact the reader fully accepts must ingest; one whose
		// damage precedes the manifest must not.
		if err == nil && ingestErr != nil {
			t.Fatalf("reader accepted the artifact but ingest failed: %v", ingestErr)
		}
		if run == nil && ingestErr == nil {
			t.Fatalf("reader salvaged nothing but ingest produced a row")
		}
	})
}

// samplesDifferential decodes data as a sample array, bare and inside a
// series line, into obs.Samples and into a []int64.
func samplesDifferential(t *testing.T, data []byte) {
	same := func(what string, got obs.Samples, gotErr error, ref []int64, refErr error) {
		t.Helper()
		if (gotErr == nil) != (refErr == nil) {
			t.Fatalf("%s: Samples error %v, []int64 error %v", what, gotErr, refErr)
		}
		have, _ := json.Marshal(got)
		if want, _ := json.Marshal(ref); refErr == nil && !bytes.Equal(have, want) {
			t.Fatalf("%s: Samples decoded %s, []int64 %s", what, have, want)
		}
	}
	var ref []int64
	var viaJSON, bare obs.Samples
	refErr := json.Unmarshal(data, &ref)
	same("json.Unmarshal", viaJSON, json.Unmarshal(data, &viaJSON), ref, refErr)
	same("UnmarshalJSON", bare, bare.UnmarshalJSON(data), ref, refErr)

	if bytes.ContainsAny(data, "\n") {
		return // would split the line
	}
	line := `{"type":"series","series":{"values":` + string(data) + `}}`
	var refLine struct {
		Series *struct {
			Values []int64 `json:"values"`
		} `json:"series"`
	}
	refErr = json.Unmarshal([]byte(line), &refLine)
	run, err := obs.ReadJSONL(strings.NewReader(`{"type":"manifest","manifest":{"schema":5}}` + "\n" + line + "\n"))
	var cerr *obs.CorruptArtifactError
	if err != nil && (!errors.As(err, &cerr) || cerr.Line != 2 || len(run.Series) != 0) {
		t.Fatalf("series line %q: error %v with %d series salvaged", line, err, len(run.Series))
	}
	var got obs.Samples
	ref = nil
	if err == nil && len(run.Series) == 1 {
		got = run.Series[0].Values
	}
	if refErr == nil && refLine.Series != nil {
		ref = refLine.Series.Values
	}
	same("series line", got, err, ref, refErr)
}
