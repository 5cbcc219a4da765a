package obs

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"flexpass/internal/metrics"
	"flexpass/internal/sim"
	"flexpass/internal/trace"
)

func TestNilRegistryNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("e", "m")
	c.Add(5)
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil counter must stay zero")
	}
	r.CounterFunc("e", "m2", func() int64 { return 1 })
	r.Gauge("e", "m3", func() int64 { return 2 })
	h := r.Histogram("e", "m4")
	h.Observe(10)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram must stay empty")
	}
	if r.Final() != nil {
		t.Fatal("nil registry must be empty")
	}
	if p := NewProber(sim.NewEngine(1), r, nil); p != nil {
		t.Fatal("prober over nil registry must be nil")
	}
	var p *Prober
	p.Start()
	p.Stop()
	if p.Ticks() != 0 || p.Series() != nil {
		t.Fatal("nil prober must no-op")
	}
}

func TestRegistryDedup(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("port/x", "drops")
	b := r.Counter("port/x", "drops")
	if a != b {
		t.Fatal("Counter must be idempotent per entity/metric")
	}
	a.Add(3)
	if n := len(r.Final()); n != 1 {
		t.Fatalf("sources = %d, want 1", n)
	}
	// Re-registering a func source replaces it in place.
	r.Gauge("q", "bytes", func() int64 { return 1 })
	r.Gauge("q", "bytes", func() int64 { return 2 })
	if n := len(r.Final()); n != 2 {
		t.Fatalf("sources = %d, want 2", n)
	}
	fin := r.Final()
	if len(fin) != 2 {
		t.Fatalf("final = %d", len(fin))
	}
	// Final is sorted by entity then metric.
	if fin[0].Entity != "port/x" || fin[0].Value != 3 {
		t.Fatalf("final[0] = %+v", fin[0])
	}
	if fin[1].Entity != "q" || fin[1].Value != 2 {
		t.Fatalf("final[1] = %+v (gauge re-registration should replace)", fin[1])
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("t", "fct_us")
	if h2 := r.Histogram("t", "fct_us"); h2 != h {
		t.Fatal("Histogram must be idempotent")
	}
	for _, v := range []int64{0, 1, 2, 3, 100, 1000} {
		h.Observe(v)
	}
	if h.Count() != 6 || h.Sum() != 1106 {
		t.Fatalf("count=%d sum=%d", h.Count(), h.Sum())
	}
	le, counts := SparseBuckets(h.counts[:])
	if q := SparseQuantile(le, counts, 0.0); q != 1 {
		t.Fatalf("q0 = %d, want 1 (bucket 0 holds v < 1)", q)
	}
	if q := SparseQuantile(le, counts, 1.0); q != 1024 {
		t.Fatalf("q1 = %d, want 1024 (1000 < 2^10)", q)
	}
	if q := SparseQuantile(le, counts, 0.5); q != 4 {
		t.Fatalf("q50 = %d, want 4 (values 2,3 in bucket le=4)", q)
	}
	if q := SparseQuantile(nil, nil, 0.5); q != 0 {
		t.Fatalf("empty quantile = %d", q)
	}
	// Past the last bound an observation saturates into the top bucket.
	if b := BucketOf(1<<62, 48); b != 47 {
		t.Fatalf("BucketOf(2^62, 48) = %d, want 47", b)
	}
}

func TestProberDeltasAndInstants(t *testing.T) {
	eng := sim.NewEngine(1)
	reg := NewRegistry()
	c := reg.Counter("port/a", "tx_bytes")
	var depth int64
	reg.Gauge("port/a/q0", "bytes", func() int64 { return depth })

	// Grow the counter by 100 per 10us, offset from the probe instants so
	// every 20us window holds exactly two adds regardless of tie-breaks.
	for i := 0; i < 10; i++ {
		eng.At(sim.Time(5+10*i)*sim.Microsecond, func() { c.Add(100); depth += 7 })
	}

	p := NewProber(eng, reg, &Options{ProbeInterval: 20 * sim.Microsecond})
	p.Start()
	eng.Run(100 * sim.Microsecond)

	if p.Ticks() != 5 {
		t.Fatalf("ticks = %d, want 5", p.Ticks())
	}
	if len(p.Series()) != 2 {
		t.Fatalf("%d series, want one per source in registration order", len(p.Series()))
	}
	d := p.Series()[0]
	if d.Entity != "port/a" || d.Metric != "tx_bytes" || d.Kind != "delta" {
		t.Fatalf("missing delta series: %+v", d)
	}
	for i, v := range d.Values.Slice() {
		if v != 200 {
			t.Fatalf("delta[%d] = %d, want 200", i, v)
		}
	}
	g := p.Series()[1]
	if g.Entity != "port/a/q0" || g.Metric != "bytes" || g.Kind != "instant" {
		t.Fatalf("missing instant series: %+v", g)
	}
	if got := g.Values.Slice(); got[0] != 14 || got[4] != 70 {
		t.Fatalf("instants = %v", got)
	}
	if g.StartPs != int64(20*sim.Microsecond) {
		t.Fatalf("start = %v", g.StartPs)
	}
}

func TestSeriesRingWrap(t *testing.T) {
	eng := sim.NewEngine(1)
	reg := NewRegistry()
	var v int64
	reg.Gauge("g", "v", func() int64 { v++; return v })
	p := NewProber(eng, reg, &Options{ProbeInterval: sim.Microsecond, SeriesCap: 4})
	p.Start()
	eng.Run(10 * sim.Microsecond)

	s := p.Series()[0]
	if got := s.Values.Slice(); !reflect.DeepEqual(got, []int64{7, 8, 9, 10}) {
		t.Fatalf("values = %v", got)
	}
	if s.Dropped != 6 {
		t.Fatalf("dropped = %d", s.Dropped)
	}
	// First retained sample was taken at tick 7 (7us).
	if s.StartPs != int64(7*sim.Microsecond) {
		t.Fatalf("start = %v", s.StartPs)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	eng := sim.NewEngine(42)
	reg := NewRegistry()
	c := reg.Counter("transport/flexpass", "credits_wasted")
	reg.Gauge("switch/s0", "shared_buffer_bytes", func() int64 { return 123 })
	h := reg.Histogram("transport/flexpass", "fct_us")
	h.Observe(50)
	h.Observe(900)
	ring := trace.NewRing(eng, 16)
	eng.Every(10*sim.Microsecond, func() { c.Add(3) })
	eng.At(25*sim.Microsecond, func() { ring.Add(trace.CreditWaste, 7, 2, "no data") })
	p := NewProber(eng, reg, &Options{ProbeInterval: 10 * sim.Microsecond})
	p.Start()
	eng.Run(50 * sim.Microsecond)

	run := Collect(reg, p, Manifest{
		Seed: 42, Topology: "single-switch hosts=3", Scheme: "flexpass",
		Workload: "websearch", Load: 0.6, Deployment: 0.5, WQ: 0.25,
		DurationPs: int64(50 * sim.Microsecond),
		Config:     map[string]string{"link_rate": "40Gbps"},
		WallMS:     1.5, Events: eng.Processed, EventsPerSec: 1e6,
	})
	run.AttachTrace(ring)
	run.Flows = []metrics.FlowRecord{
		{ID: 1, Size: 1460, Start: 3, FCT: 9 * sim.Microsecond, Completed: true, Transport: "flexpass", RxBytes: 1460,
			RxBytesPro: 1000, RxBytesRe: 460, CreditsGranted: 3, CreditsWasted: 2},
		{ID: 2, Size: 90_000, Start: 7, FCT: -1, Legacy: true, Incast: true, Transport: "dctcp", Timeouts: 2, Retransmits: 5, RxBytes: 4380},
	}

	if run.Manifest.Schema != SchemaVersion {
		t.Fatalf("schema = %d", run.Manifest.Schema)
	}
	if len(run.Series) != 2 || len(run.Counters) != 2 || len(run.Hists) != 1 || len(run.Trace) != 1 {
		t.Fatalf("shape: %d series %d counters %d hists %d trace",
			len(run.Series), len(run.Counters), len(run.Hists), len(run.Trace))
	}

	var buf bytes.Buffer
	if err := run.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), `{"type":"manifest"`) {
		t.Fatalf("first line must be the manifest: %q", buf.String()[:40])
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, run) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, run)
	}

	// Spot-check semantic content survived.
	s := got.FindSeries("transport/flexpass", "credits_wasted")
	if s == nil || s.Kind != "delta" || s.Values.Len() != 5 || s.Values.Slice()[0] != 3 {
		t.Fatalf("credit series: %+v", s)
	}
	if got.Trace[0].Kind != "credit-waste" || got.Trace[0].AtPs != int64(25*sim.Microsecond) {
		t.Fatalf("trace: %+v", got.Trace[0])
	}
}

// TestFlowsDigestIsFlowLines: FlowsDigest is the sha256 of an
// artifact's flow lines as WriteJSONL writes them, so it can be read off
// the file; it moves with any one field of any one record.
func TestFlowsDigestIsFlowLines(t *testing.T) {
	run := sampleRun()
	run.Flows[0].CreditsWasted = 4
	var buf bytes.Buffer
	if err := run.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, line := range bytes.SplitAfter(buf.Bytes(), []byte("\n")) {
		if bytes.Contains(line, []byte(`"type":"flow"`)) {
			h.Write(line)
		}
	}
	got := FlowsDigest(run.Flows)
	if want := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("FlowsDigest = %s, sha256 of the flow lines = %s", got, want)
	}
	run.Flows[0].CreditsWasted++
	if FlowsDigest(run.Flows) == got {
		t.Fatal("FlowsDigest did not move with credits_wasted")
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestWriteJSONLAllocsFlat: writing an artifact allocates the same
// however many flow, series, trace, counter and hist lines it carries —
// the line envelopes are boxed once per artifact, not once per line, and
// every series line's values go through one reused buffer.
func TestWriteJSONLAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is lossy under the race detector")
	}
	allocs := func(lines int) float64 {
		run := sampleRun()
		for i := 0; i < lines; i++ {
			run.Series = append(run.Series, SeriesData{Entity: "port/tor0/q1", Metric: "bytes", Kind: "instant", IntervalPs: 1000,
				StartPs: int64(i), Values: samplesOf(append(make([]int64, 600), int64(i), 1, 1, 2)...)})
			run.Trace = append(run.Trace, TraceData{AtPs: int64(i), Kind: "credit-waste", Flow: uint64(i), Seq: int64(i), Note: "no data"})
			run.Flows = append(run.Flows, metrics.FlowRecord{ID: uint64(i), Size: 5000, Start: sim.Time(i), FCT: 900, Completed: true, Transport: "flexpass", RxBytes: 5000})
			run.Counters = append(run.Counters, CounterData{Entity: "port/tor0/q1", Metric: "dropped", Kind: "counter", Value: int64(i)})
			run.Hists = append(run.Hists, HistData{Entity: "transport/flexpass", Metric: "fct_us", Count: 3, Sum: 90, Le: []int64{32, 64}, Counts: []int64{1, 2}})
		}
		return testing.AllocsPerRun(20, func() {
			if err := run.WriteJSONL(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(1), allocs(2000); many != few {
		t.Errorf("WriteJSONL allocates %.0f times with 1 line of each kind, %.0f with 2000", few, many)
	}
}

// TestSeriesLinesMatchMarshal: every series line WriteJSONL streams is
// byte for byte the line json.Marshal makes of the SeriesData envelope —
// nil and empty values, dropped samples, long constant runs, and entity
// names encoding/json escapes alike.
func TestSeriesLinesMatchMarshal(t *testing.T) {
	run := &Run{Series: []SeriesData{
		{Entity: "nil", Metric: "m", Kind: "delta", IntervalPs: 5},
		{Entity: "empty", Metric: "m", Kind: "delta", IntervalPs: 5, Values: Samples{runs: []valueRun{}}},
		{Entity: "port/tor0->agg1", Metric: "tx_bytes", Kind: "delta", IntervalPs: 100, StartPs: 700, Dropped: 7, Values: samplesOf(3, 3, 0, -1)},
		{Entity: "flat", Metric: "bytes", Kind: "instant", IntervalPs: 100, Values: samplesOf(make([]int64, 50_000)...)},
		{Entity: "<q&a>\u2028\"", Metric: "m\n", Kind: "instant", IntervalPs: 1, StartPs: 1, Dropped: 1 << 40,
			Values: samplesOf(math.MinInt64, math.MaxInt64, math.MaxInt64, 0)},
		{Entity: "after", Metric: "m", Kind: "delta", IntervalPs: 5, Values: samplesOf(1)},
	}}
	var buf bytes.Buffer
	if err := run.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(buf.Bytes(), []byte("\n"))[1:] // past the manifest
	for i := range run.Series {
		want, err := json.Marshal(&jsonlLine{Type: "series", Series: &run.Series[i]})
		if err != nil {
			t.Fatal(err)
		}
		if want = append(want, '\n'); !bytes.Equal(lines[i], want) {
			t.Errorf("series %q:\n got %.200s\nwant %.200s", run.Series[i].Entity, lines[i], want)
		}
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"port/tor0-\u003eagg1"`)) {
		t.Error("entity names are not escaped as encoding/json escapes them")
	}
}

func TestReadJSONLErrors(t *testing.T) {
	for _, tc := range []struct{ name, artifact string }{
		{"empty artifact (no manifest)", ""},
		{"unknown line type", `{"type":"wat"}`},
		{"garbage", "not json"},
		{"manifest from a newer schema", `{"type":"manifest","manifest":{"schema":` + strconv.Itoa(SchemaVersion+1) + `}}`},
		{"manifest from before flow lines", `{"type":"manifest","manifest":{"schema":` + strconv.Itoa(MinSchemaVersion-1) + `}}`},
		{"histogram with unpaired buckets", `{"type":"manifest","manifest":{"schema":5}}` + "\n" +
			`{"type":"hist","hist":{"entity":"transport/x","metric":"fct_us","count":1,"le":[64,128],"counts":[1]}}`},
	} {
		if _, err := ReadJSONL(strings.NewReader(tc.artifact)); err == nil {
			t.Errorf("%s must fail", tc.name)
		}
	}
	// Every schema from the floor up reads cleanly; one below it is
	// refused with a message that names the floor, and nothing salvaged.
	for v := MinSchemaVersion; v <= SchemaVersion; v++ {
		if _, err := ReadJSONL(strings.NewReader(`{"type":"manifest","manifest":{"schema":` + strconv.Itoa(v) + `}}`)); err != nil {
			t.Errorf("schema %d: %v", v, err)
		}
	}
	run, err := ReadJSONL(strings.NewReader(`{"type":"manifest","manifest":{"schema":4}}` + "\n" +
		`{"type":"counter","counter":{"entity":"e","metric":"m","value":1}}`))
	if run != nil || err == nil || !strings.Contains(err.Error(), "schema 4") || !strings.Contains(err.Error(), strconv.Itoa(MinSchemaVersion)) {
		t.Errorf("schema 4 artifact: run %v, error %v", run, err)
	}
}

func TestWriteCSV(t *testing.T) {
	run := &Run{
		Series: []SeriesData{{
			Entity: "port/a", Metric: "tx_bytes", Kind: "delta",
			IntervalPs: int64(10 * sim.Microsecond),
			StartPs:    int64(10 * sim.Microsecond),
			Values:     samplesOf(100, 200),
		}},
	}
	var buf bytes.Buffer
	if err := run.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "entity,metric,kind,time_us,value\nport/a,tx_bytes,delta,10.000,100\nport/a,tx_bytes,delta,20.000,200\n"
	if buf.String() != want {
		t.Fatalf("csv:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// TestMergeRunsOfOneIsThatRun: the single-engine fold must not copy —
// one input comes back as it is, under the given manifest — while two
// inputs sum what they share.
func TestMergeRunsOfOneIsThatRun(t *testing.T) {
	mk := func() *Run {
		return &Run{
			Counters: []CounterData{{Entity: "e", Metric: "m", Kind: "counter", Value: 3}},
			Series:   []SeriesData{{Entity: "e", Metric: "m", Values: samplesOf(1, 2)}},
		}
	}
	one := mk()
	got := MergeRuns(Manifest{Seed: 9}, one)
	if got != one || &got.Series[0].Values.runs[0] != &one.Series[0].Values.runs[0] {
		t.Fatal("merge of one run copied it")
	}
	if got.Manifest.Seed != 9 || got.Manifest.Schema != SchemaVersion {
		t.Fatalf("merge of one run dropped the manifest: %+v", got.Manifest)
	}
	two := MergeRuns(Manifest{}, mk(), mk())
	if len(two.Counters) != 1 || two.Counters[0].Value != 6 || !reflect.DeepEqual(two.Series[0].Values.Slice(), []int64{2, 4}) {
		t.Fatalf("merge of two runs: %+v", two)
	}
}
