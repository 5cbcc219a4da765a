package obs

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"

	"flexpass/internal/metrics"
)

func sampleRun() *Run {
	return &Run{
		Manifest: Manifest{Schema: SchemaVersion, Seed: 7, Scheme: "flexpass"},
		Flows: []metrics.FlowRecord{
			{ID: 1, Size: 5000, Start: 10, FCT: 900, Completed: true, Transport: "flexpass", RxBytes: 5000},
			{ID: 2, Size: 9000, Start: 20, FCT: -1, Legacy: true, Transport: "dctcp", Timeouts: 1, RxBytes: 2920},
		},
		Series: []SeriesData{
			{Entity: "port/tor0/q1", Metric: "bytes", Kind: "instant", IntervalPs: 1000, Values: samplesOf(1, 2, 3)},
		},
		Counters: []CounterData{
			{Entity: "transport/flexpass", Metric: "flows_started", Kind: "counter", Value: 9},
		},
		Forensics: []ForensicsData{
			{Violation: &ViolationData{AtPs: 5, Auditor: "credit-conservation", Detail: "test"}},
		},
	}
}

// TestReadJSONLTruncatedMidLine models a run killed mid-write: the file
// ends in the middle of a JSON line. The reader must salvage every
// complete line before the damage and report it as a
// *CorruptArtifactError rather than failing the whole read.
func TestReadJSONLTruncatedMidLine(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleRun().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.String()
	lines := strings.Split(strings.TrimRight(full, "\n"), "\n")
	// Cut the last line (the forensics record) in half.
	trunc := strings.Join(lines[:len(lines)-1], "\n") + "\n" + lines[len(lines)-1][:len(lines[len(lines)-1])/2]

	run, err := ReadJSONL(strings.NewReader(trunc))
	if err == nil {
		t.Fatal("truncated artifact read without error")
	}
	var corrupt *CorruptArtifactError
	if !errors.As(err, &corrupt) {
		t.Fatalf("error is %T, want *CorruptArtifactError", err)
	}
	if corrupt.Line != len(lines) {
		t.Fatalf("damage reported at line %d, want %d", corrupt.Line, len(lines))
	}
	if corrupt.Unwrap() == nil {
		t.Fatal("CorruptArtifactError has no underlying cause")
	}
	if run == nil {
		t.Fatal("no partial artifact salvaged")
	}
	if run.Manifest.Seed != 7 || len(run.Flows) != 2 || len(run.Series) != 1 || len(run.Counters) != 1 {
		t.Fatalf("salvaged prefix incomplete: %+v", run)
	}
	if len(run.Forensics) != 0 {
		t.Fatal("the truncated line itself leaked into the artifact")
	}
}

// TestReadJSONLGarbledLine: a corrupt line mid-file stops the parse
// there but keeps everything before it.
func TestReadJSONLGarbledLine(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleRun().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	lines[1] = `{"type":"flow","flow":` // garbled: unterminated JSON
	run, err := ReadJSONL(strings.NewReader(strings.Join(lines, "\n")))
	var corrupt *CorruptArtifactError
	if !errors.As(err, &corrupt) || corrupt.Line != 2 {
		t.Fatalf("err = %v, want corrupt-artifact at line 2", err)
	}
	if run == nil || run.Manifest.Seed != 7 {
		t.Fatal("manifest before the damage not salvaged")
	}
	if len(run.Flows) != 0 || len(run.Series) != 0 || len(run.Counters) != 0 {
		t.Fatal("lines after the damage were parsed")
	}
}

// TestReadJSONLUnknownType: a line of unknown type (e.g. from a newer
// schema) is damage, not silently droppable data.
func TestReadJSONLUnknownType(t *testing.T) {
	in := `{"type":"manifest","manifest":{"schema":5,"seed":3}}
{"type":"hologram","entity":"x"}
`
	run, err := ReadJSONL(strings.NewReader(in))
	var corrupt *CorruptArtifactError
	if !errors.As(err, &corrupt) || corrupt.Line != 2 {
		t.Fatalf("err = %v, want corrupt-artifact at line 2", err)
	}
	if run == nil || run.Manifest.Seed != 3 {
		t.Fatal("prefix not salvaged")
	}
}

// TestReadJSONLNoManifest: an empty or manifest-less stream is not an
// artifact at all — no salvage, plain error.
func TestReadJSONLNoManifest(t *testing.T) {
	run, err := ReadJSONL(strings.NewReader(""))
	if err == nil || run != nil {
		t.Fatalf("empty input: run=%v err=%v, want nil+error", run, err)
	}
	var corrupt *CorruptArtifactError
	if errors.As(err, &corrupt) {
		t.Fatal("missing manifest mis-reported as corruption")
	}
}

// TestReadJSONLCleanRoundTripWithForensics: the flow and forensics line
// types survive a clean write/read cycle, the flow lines directly after
// the manifest.
func TestReadJSONLCleanRoundTripWithForensics(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleRun().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	run, err := ReadJSONL(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Forensics) != 1 || run.Violations()[0].Auditor != "credit-conservation" {
		t.Fatalf("forensics line did not round-trip: %+v", run.Forensics)
	}
	if want := sampleRun().Flows; !slices.Equal(run.Flows, want) {
		t.Fatalf("flow lines did not round-trip: %+v, want %+v", run.Flows, want)
	}
	if lines := strings.SplitN(text, "\n", 3); !strings.HasPrefix(lines[1], `{"type":"flow","flow":{"id":1,`) {
		t.Fatalf("second line is not the first flow: %s", lines[1])
	}
}
