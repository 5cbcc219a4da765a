package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"flexpass/internal/sim"
)

func samplesOf(vs ...int64) Samples {
	var s Samples
	for _, v := range vs {
		s.Append(v)
	}
	return s
}

// TestConstantSeriesIsOneRun: a source that never moves costs one run
// however many ticks it is read and however many samples the cap drops,
// and a series that moves on every tick gets exactly the runs it keeps.
func TestConstantSeriesIsOneRun(t *testing.T) {
	eng := sim.NewEngine(1)
	reg := NewRegistry()
	var zero int64
	reg.GaugeAt("flat", "v", &zero)
	reg.Gauge("busy", "v", func() int64 { return int64(eng.Now()) })
	p := NewProber(eng, reg, &Options{ProbeInterval: sim.Microsecond, SeriesCap: 512})
	p.Start()
	eng.Run(100000 * sim.Microsecond)
	flat, busy := p.Series()[0], p.Series()[1]
	if got := flat.Values; got.Len() != 512 || got.Runs() != 1 || cap(got.runs) != 1 {
		t.Fatalf("constant series: %d samples in %d runs (cap %d), want 512 in 1 (cap 1)",
			got.Len(), got.Runs(), cap(got.runs))
	}
	if flat.Dropped != 100000-512 {
		t.Fatalf("dropped = %d", flat.Dropped)
	}
	if got := busy.Values; got.Runs() != 512 || cap(got.runs) != 512 {
		t.Fatalf("changing series: %d runs in a backing array of %d", got.Runs(), cap(got.runs))
	}
}

// TestSamplesMarshalJSON: the wire form is the []int64 wire form, byte
// for byte, nil and empty included.
func TestSamplesMarshalJSON(t *testing.T) {
	for _, vs := range [][]int64{
		nil,
		{},
		{0},
		{0, 0, 0, 0, 0},
		{1, 2, 3},
		{-1, -1, 7, 7, 7, 0},
		{math.MaxInt64, math.MinInt64, math.MinInt64, 0},
	} {
		s := samplesOf(vs...)
		if vs != nil && len(vs) == 0 {
			s = Samples{runs: []valueRun{}}
		}
		want, _ := json.Marshal(vs)
		got, err := json.Marshal(s)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("Marshal(%v) = %s, %v; want %s", vs, got, err, want)
		}
		// Inside a struct, by value and by pointer, through an Encoder.
		type line struct {
			V Samples `json:"values"`
		}
		type refLine struct {
			V []int64 `json:"values"`
		}
		var gotBuf, wantBuf bytes.Buffer
		if err := json.NewEncoder(&gotBuf).Encode(line{s}); err != nil {
			t.Fatal(err)
		}
		_ = json.NewEncoder(&gotBuf).Encode(&line{s})
		_ = json.NewEncoder(&wantBuf).Encode(refLine{vs})
		_ = json.NewEncoder(&wantBuf).Encode(&refLine{vs})
		if !bytes.Equal(gotBuf.Bytes(), wantBuf.Bytes()) {
			t.Errorf("Encode(%v) = %s; want %s", vs, gotBuf.Bytes(), wantBuf.Bytes())
		}
	}
}

// TestSamplesUnmarshalJSON: Samples takes and refuses exactly what a
// []int64 does, through json.Unmarshal (which has checked the syntax
// before it calls UnmarshalJSON) and called bare (which has not).
func TestSamplesUnmarshalJSON(t *testing.T) {
	for _, in := range []string{
		`null`, " null\n", `[]`, " [ \t] ", `[1,2,3]`, "[ 1 ,\t-2\n, 3\r]", `[0,0,0,0]`, `[-0]`,
		`[9223372036854775807]`, `[-9223372036854775808]`, `[9223372036854775808]`, `[-9223372036854775809]`,
		`[1.0]`, `[1.5]`, `[1e3]`, `[1E3]`, `[1e400]`, `["1"]`, `[[1]]`, `[{}]`, `[true]`, `[null]`, `[1,null,2]`,
		`[1,]`, `[,1]`, `[1 2]`, `[01]`, `[-]`, `[+1]`, `[--1]`, `[1-2]`, `[0x10]`, `[1`, `[`, `1`, `"x"`, `{}`, `true`,
		``, ` `, `[1]x`, `[1]]`, `[1] [2]`, `nul`, `nullx`, `[nul]`, `[nullnull]`, `[null1]`,
	} {
		var ref []int64
		refErr := json.Unmarshal([]byte(in), &ref)
		for _, bare := range []bool{false, true} {
			var got Samples
			var gotErr error
			if bare {
				gotErr = got.UnmarshalJSON([]byte(in))
			} else {
				gotErr = json.Unmarshal([]byte(in), &got)
			}
			if (gotErr == nil) != (refErr == nil) {
				t.Errorf("%q (bare=%t): Samples error %v, []int64 error %v", in, bare, gotErr, refErr)
				continue
			}
			if refErr != nil {
				continue
			}
			want, _ := json.Marshal(ref)
			if have, _ := json.Marshal(got); !bytes.Equal(have, want) || got.Len() != len(ref) {
				t.Errorf("%q (bare=%t): decoded %s (%d samples), want %s", in, bare, have, got.Len(), want)
			}
		}
	}
	// Decoding replaces what the value held, as it does for a slice.
	for in, want := range map[string]string{`null`: `null`, `[]`: `[]`, `[7]`: `[7]`} {
		got := samplesOf(42, 42, 1)
		if err := json.Unmarshal([]byte(in), &got); err != nil {
			t.Fatal(err)
		}
		if have, _ := json.Marshal(got); string(have) != want {
			t.Errorf("%s into a held value: %s", in, have)
		}
	}
}

// TestMergeRunsSumsRunsOfDifferentShapes: the pointwise sum walks two
// run lists whose boundaries do not line up, leaves its inputs alone,
// and keeps a series of another length apart.
func TestMergeRunsSumsRunsOfDifferentShapes(t *testing.T) {
	shapes := [][]int64{
		{0, 0, 0, 0, 0, 0, 0, 0},
		{1, 1, 1, 2, 2, 2, 2, 2},
		{5, 0, 0, 0, 0, 0, 0, -5},
		{1, 2, 3, 4, 5, 6, 7, 8},
		{-1, -1, -1, -2, -2, -2, -2, -2}, // cancels the second: runs re-join
	}
	var runs []*Run
	want := make([]int64, 8)
	for _, vs := range shapes {
		runs = append(runs, &Run{Series: []SeriesData{
			{Entity: "e", Metric: "m", Kind: "delta", IntervalPs: 10, Dropped: 1, Values: samplesOf(vs...)},
		}})
		for i, v := range vs {
			want[i] += v
		}
	}
	runs = append(runs, &Run{Series: []SeriesData{
		{Entity: "e", Metric: "m", Kind: "delta", IntervalPs: 10, Values: samplesOf(9, 9)},
		{Entity: "other", Metric: "m", Kind: "delta", IntervalPs: 10, Values: samplesOf(3)},
	}})
	got := MergeRuns(Manifest{}, runs...)
	if len(got.Series) != 3 {
		t.Fatalf("merged %d series, want 3", len(got.Series))
	}
	sum := got.Series[0]
	// The copies cover the same ticks, so the sum displaced what each did.
	if !reflect.DeepEqual(sum.Values.Slice(), want) || sum.Dropped != 1 {
		t.Fatalf("sum = %v dropped %d, want %v dropped 1", sum.Values.Slice(), sum.Dropped, want)
	}
	if want := samplesOf(want...); !reflect.DeepEqual(sum.Values, want) {
		t.Fatalf("sum runs %+v are not the canonical runs %+v", sum.Values, want)
	}
	if !reflect.DeepEqual(got.Series[1].Values.Slice(), []int64{9, 9}) || !reflect.DeepEqual(got.Series[2].Values.Slice(), []int64{3}) {
		t.Fatalf("unmatched series changed: %+v", got.Series[1:])
	}
	for i, vs := range shapes {
		if !reflect.DeepEqual(runs[i].Series[0].Values.Slice(), vs) {
			t.Fatalf("merge changed input %d: %v, want %v", i, runs[i].Series[0].Values.Slice(), vs)
		}
	}
}

// TestArtifactByteStable: an artifact written, read and written again
// is the same bytes — nil, empty, flat and busy series alike.
func TestArtifactByteStable(t *testing.T) {
	run := sampleRun()
	run.Series = append(run.Series,
		SeriesData{Entity: "nil", Metric: "m", Kind: "delta", IntervalPs: 5},
		SeriesData{Entity: "empty", Metric: "m", Kind: "delta", IntervalPs: 5, Values: Samples{runs: []valueRun{}}},
		SeriesData{Entity: "flat", Metric: "m", Kind: "instant", IntervalPs: 5, StartPs: 50, Dropped: 10, Values: samplesOf(make([]int64, 700)...)},
		SeriesData{Entity: "busy", Metric: "m", Kind: "delta", IntervalPs: 5, Values: samplesOf(0, 0, -7, math.MaxInt64, math.MinInt64, 0, 0, 3, 3)},
	)
	var first bytes.Buffer
	if err := run.WriteJSONL(&first); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, run) {
		t.Fatalf("read back %+v, wrote %+v", back, run)
	}
	var second bytes.Buffer
	if err := back.WriteJSONL(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("artifact changed across write → read → write:\n%s\n%s", first.Bytes(), second.Bytes())
	}
}
