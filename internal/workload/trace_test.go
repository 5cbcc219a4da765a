package workload

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"flexpass/internal/sim"
)

func TestTraceRoundTrip(t *testing.T) {
	env := testEnv()
	env.Duration = 5 * sim.Millisecond
	orig := mustGenerate(t, LegacyPlan(WebSearch, 0), env, 4)
	var b strings.Builder
	if err := WriteTrace(&b, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(orig) {
		t.Fatalf("round trip lost flows: %d vs %d", len(got), len(orig))
	}
	for i := range got {
		if got[i].Src != orig[i].Src || got[i].Dst != orig[i].Dst || got[i].Size != orig[i].Size {
			t.Fatalf("flow %d differs: %+v vs %+v", i, got[i], orig[i])
		}
		// Arrival times round to the exported microsecond precision.
		d := got[i].At - orig[i].At
		if d < -sim.Microsecond || d > sim.Microsecond {
			t.Fatalf("flow %d arrival drifted by %v", i, d)
		}
	}
}

// badTraces are traces ReadTrace rejects; they also seed FuzzReadTrace.
var badTraces = []struct {
	name string
	in   string
}{
	{"wrong fields", "at_us,src,dst,size_bytes,incast\n1.0,2,3,100\n"},
	{"negative time", "at_us,src,dst,size_bytes,incast\n-1.0,2,3,100,0\n"},
	{"self flow", "at_us,src,dst,size_bytes,incast\n1.0,2,2,100,0\n"},
	{"zero size", "at_us,src,dst,size_bytes,incast\n1.0,2,3,0,0\n"},
	{"bad incast", "at_us,src,dst,size_bytes,incast\n1.0,2,3,100,7\n"},
	{"garbage src", "at_us,src,dst,size_bytes,incast\n1.0,x,3,100,0\n"},
}

func TestReadTraceValidation(t *testing.T) {
	for _, c := range badTraces {
		if _, err := ReadTrace(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestReadTraceSortsAndSkipsComments(t *testing.T) {
	in := "at_us,src,dst,size_bytes,incast\n# comment\n5.0,1,2,100,0\n\n1.0,3,4,200,1\n"
	flows, err := ReadTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != 2 {
		t.Fatalf("parsed %d flows", len(flows))
	}
	if flows[0].Size != 200 || !flows[0].Incast {
		t.Fatalf("not sorted by arrival: %+v", flows[0])
	}
}

// Regression: a header preceded by comment or blank lines must still be
// recognized (the skip used to be pinned to line 1).
func TestReadTraceHeaderAfterComments(t *testing.T) {
	in := "# exported by flexsim -dump-trace\n\n# schema v1\nat_us,src,dst,size_bytes,incast\n1.0,2,3,100,0\n"
	flows, err := ReadTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != 1 || flows[0].Src != 2 || flows[0].Dst != 3 {
		t.Fatalf("parsed %+v", flows)
	}
	// A header-looking line after data is data (and malformed), not a
	// header to skip silently.
	in = "1.0,2,3,100,0\nat_us,src,dst,size_bytes,incast\n"
	if _, err := ReadTrace(strings.NewReader(in)); err == nil {
		t.Fatal("header after data should be rejected, not skipped")
	}
}

func TestTraceIDStable(t *testing.T) {
	flows := []FlowSpec{
		{At: sim.Microsecond, Src: 0, Dst: 1, Size: 1000},
		{At: 2 * sim.Microsecond, Src: 1, Dst: 2, Size: 2000, Incast: true},
	}
	id := TraceID(flows)
	if !strings.HasPrefix(id, "trace:") || len(id) != len("trace:")+12 {
		t.Fatalf("bad trace ID %q", id)
	}
	if TraceID(flows) != id {
		t.Fatal("TraceID not deterministic")
	}
	// The identity follows content: reparsing the canonical CSV form
	// (e.g. after a dump/replay round trip) keeps the ID.
	var b strings.Builder
	if err := WriteTrace(&b, flows); err != nil {
		t.Fatal(err)
	}
	reread, err := ReadTrace(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if TraceID(reread) != id {
		t.Fatalf("round trip changed the ID: %q vs %q", TraceID(reread), id)
	}
	if TraceID(flows[:1]) == id {
		t.Fatal("different flow lists share an ID")
	}
}

// writeTraceReference is WriteTrace as fmt prints it, the reference the
// strconv writer is held to.
func writeTraceReference(w io.Writer, flows []FlowSpec) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("at_us,src,dst,size_bytes,incast\n"); err != nil {
		return err
	}
	for _, f := range flows {
		inc := 0
		if f.Incast {
			inc = 1
		}
		if _, err := fmt.Fprintf(bw, "%.3f,%d,%d,%d,%d\n",
			f.At.Micros(), f.Src, f.Dst, f.Size, inc); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// readTraceReference is ReadTrace line by line on strings, the reference
// the in-place reader is held to: same flows, or the same error.
func readTraceReference(r io.Reader) ([]FlowSpec, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	var flows []FlowSpec
	lineNo := 0
	seenData := false
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !seenData && strings.HasPrefix(line, "at_us") {
			continue
		}
		seenData = true
		fields := strings.Split(line, ",")
		if len(fields) != 5 {
			return nil, fmt.Errorf("workload: trace line %d: want 5 fields, got %d", lineNo, len(fields))
		}
		atUS, err := strconv.ParseFloat(fields[0], 64)
		if err != nil || atUS < 0 {
			return nil, fmt.Errorf("workload: trace line %d: bad arrival time %q", lineNo, fields[0])
		}
		src, err := strconv.Atoi(fields[1])
		if err != nil || src < 0 {
			return nil, fmt.Errorf("workload: trace line %d: bad src %q", lineNo, fields[1])
		}
		dst, err := strconv.Atoi(fields[2])
		if err != nil || dst < 0 {
			return nil, fmt.Errorf("workload: trace line %d: bad dst %q", lineNo, fields[2])
		}
		if src == dst {
			return nil, fmt.Errorf("workload: trace line %d: src == dst == %d", lineNo, src)
		}
		size, err := strconv.ParseInt(fields[3], 10, 64)
		if err != nil || size <= 0 {
			return nil, fmt.Errorf("workload: trace line %d: bad size %q", lineNo, fields[3])
		}
		inc, err := strconv.Atoi(fields[4])
		if err != nil || (inc != 0 && inc != 1) {
			return nil, fmt.Errorf("workload: trace line %d: bad incast flag %q", lineNo, fields[4])
		}
		flows = append(flows, FlowSpec{
			At:     sim.Time(atUS * float64(sim.Microsecond)),
			Src:    src,
			Dst:    dst,
			Size:   size,
			Incast: inc == 1,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.SliceStable(flows, func(i, j int) bool { return flows[i].At < flows[j].At })
	return flows, nil
}

// TestWriteTraceMatchesPrintf: WriteTrace prints what fmt's %.3f and %d
// print, byte for byte, at every nanosecond of the first 200 µs (each at
// a different picosecond offset), at exact half-nanosecond ties, around
// and above 2^50 ps where the integer path hands over, at negative times
// and at extreme ids and sizes.
func TestWriteTraceMatchesPrintf(t *testing.T) {
	var flows []FlowSpec
	add := func(at sim.Time) {
		n := len(flows)
		flows = append(flows, FlowSpec{At: at, Src: n % 192, Dst: n % 191, Size: int64(n)*7 + 1, Incast: n%3 == 0})
	}
	for ns := sim.Time(0); ns < 200_000; ns++ {
		add(ns*1000 + ns*389%1000)
	}
	r := rand.New(rand.NewSource(1))
	for k := 0; k < 20_000; k++ {
		add(sim.Time(k)*1000 + 500)
		add(sim.Time(r.Int63n(1<<50/1000))*1000 + 500)
	}
	for e := 40; e < 63; e++ {
		for _, d := range []sim.Time{-501, -500, -499, -1, 0, 1, 499, 500, 501} {
			add(sim.Time(1)<<e + d)
		}
		add(sim.Time(r.Int63n(1 << e)))
	}
	for _, at := range []sim.Time{math.MaxInt64, math.MinInt64, -1, -499, -500, -501, -1_000_500} {
		add(at)
	}
	flows = append(flows, FlowSpec{At: 1, Src: math.MaxInt, Dst: math.MinInt, Size: math.MinInt64},
		FlowSpec{At: 2, Src: -1, Dst: 0, Size: math.MaxInt64})

	var got, want bytes.Buffer
	if err := WriteTrace(&got, flows); err != nil {
		t.Fatal(err)
	}
	if err := writeTraceReference(&want, flows); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want.Bytes()) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(want.String(), "\n")
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			t.Fatalf("line %d: WriteTrace %q, fmt %q", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("WriteTrace wrote %d lines, fmt %d", len(gl), len(wl))
}

// FuzzReadTrace: ReadTrace never panics, and it returns what the string
// reader returns, the same flows or the same error text with the same
// line number, the 1 MiB line cap included.
func FuzzReadTrace(f *testing.F) {
	for _, c := range badTraces {
		f.Add([]byte(c.in))
	}
	f.Add([]byte("# c\n\nat_us,src,dst,size_bytes,incast\n5.0,1,2,100,0\r\n1.0,3,4,200,1\n\u00a01.001,0,9,5,0\u2003\n"))
	f.Add([]byte("1.0,2,3,100,0\nat_us,src,dst,size_bytes,incast\n"))
	f.Add([]byte("1e3,+2,-0,1_0,0\nNaN,1,2,3,1\n0x1p-2,1,2,3,0\n"))
	f.Add([]byte("1.0,2,3,100,0,\n"))
	f.Add([]byte("1.0,99999999999999999999,3,100,0\n"))
	f.Add([]byte("1.0,\xff,3,100,0\n"))
	long := func(n int, tail string) []byte { return []byte("1.0,1,2,3,0\n#" + strings.Repeat("x", n) + tail) }
	f.Add(long(1<<20-2, "\n2.0,1,2,3,0\n"))
	f.Add(long(1<<20-1, "\n2.0,1,2,3,0\n"))
	f.Add(long(1<<20, "\n"))
	f.Add(long(1<<20-1, ""))
	f.Add(long(1<<20, ""))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadTrace(bytes.NewReader(data))
		want, wantErr := readTraceReference(bytes.NewReader(data))
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("error %v, reference %v", err, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("flows %+v, reference %+v", got, want)
		}
	})
}

// TestReadTraceTruncatesToThePicosecond pins a known approximation
// (DESIGN.md §5): ReadTrace truncates at_us × 10^6, so "1.001" reads as
// 1 000 999 ps. Nanosecond times come back from WriteTrace→ReadTrace
// exact or 1 ps early, picosecond times within [−501, 500] ps, and a
// trace read back from a written read trace is the same list: the
// error does not grow with round trips.
func TestReadTraceTruncatesToThePicosecond(t *testing.T) {
	flows, err := ReadTrace(strings.NewReader("1.001,0,1,100,0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if flows[0].At != 1_000_999 {
		t.Fatalf("1.001 us reads as %d ps; the truncation this test pins is gone (re-pin Fig 8 and the trace-replay digests, then drop the DESIGN.md §5 row)", flows[0].At)
	}
	var orig []FlowSpec
	for ns := sim.Time(0); ns < 100_000; ns++ {
		orig = append(orig, FlowSpec{At: ns * 1000, Src: 0, Dst: 1, Size: 1})
	}
	roundTrip := func(in []FlowSpec) []FlowSpec {
		var b bytes.Buffer
		if err := WriteTrace(&b, in); err != nil {
			t.Fatal(err)
		}
		out, err := ReadTrace(&b)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	once := roundTrip(orig)
	short := 0
	for i, f := range once {
		switch orig[i].At - f.At {
		case 0:
		case 1:
			short++
		default:
			t.Fatalf("%d ps reads back as %d ps", orig[i].At, f.At)
		}
	}
	if short == 0 || short > len(orig)/20 {
		t.Errorf("%d of %d nanosecond times read back 1 ps early, want a few percent", short, len(orig))
	}
	if twice := roundTrip(once); !reflect.DeepEqual(twice, once) {
		t.Error("a second round trip moved the read flows")
	}

	// A generated trace is not nanosecond-aligned: writing rounds each
	// time to the nanosecond and reading truncates, so every time off
	// the nanosecond moves, up to 500 ps late or 501 ps early (first at
	// 2 002 500 ps, a half-nanosecond tie), and only the second round
	// trip is exact.
	orig = orig[:0]
	for ps := sim.Time(0); ps < 3000; ps++ {
		orig = append(orig, FlowSpec{At: ps, Src: 0, Dst: 1, Size: 1})
	}
	for ns := sim.Time(3); ns < 10_000; ns++ {
		orig = append(orig, FlowSpec{At: ns*1000 + 500, Src: 0, Dst: 1, Size: 1})
	}
	once = roundTrip(orig)
	lo, hi := sim.Time(0), sim.Time(0)
	for i, f := range once {
		d := f.At - orig[i].At
		lo, hi = min(lo, d), max(hi, d)
		if d == 0 && orig[i].At%1000 != 0 {
			t.Fatalf("%d ps reads back unmoved", orig[i].At)
		}
	}
	if lo != -501 || hi != 500 {
		t.Errorf("picosecond times read back %d to %d ps off, want -501 to 500", lo, hi)
	}
	if twice := roundTrip(once); !reflect.DeepEqual(twice, once) {
		t.Error("a second round trip of picosecond times moved the read flows")
	}
}

// TestTraceIOAllocs: WriteTrace allocates nothing per line, and ReadTrace
// allocates only to grow its result, O(log n) objects for n lines.
func TestTraceIOAllocs(t *testing.T) {
	trace := func(n int) ([]FlowSpec, []byte) {
		fs := make([]FlowSpec, n)
		for i := range fs {
			fs[i] = FlowSpec{At: sim.Time(i) * 1234567, Src: i % 48, Dst: (i + 1) % 48, Size: int64(i%9000 + 1), Incast: i%5 == 0}
		}
		var b bytes.Buffer
		if err := WriteTrace(&b, fs); err != nil {
			t.Fatal(err)
		}
		return fs, b.Bytes()
	}
	var writes, reads [2]float64
	for i, n := range []int{1_000, 100_000} {
		fs, data := trace(n)
		writes[i] = testing.AllocsPerRun(3, func() {
			if err := WriteTrace(io.Discard, fs); err != nil {
				t.Fatal(err)
			}
		})
		reads[i] = testing.AllocsPerRun(3, func() {
			if _, err := ReadTrace(bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
		})
		// Each append that grows the result allocates once; growth is at
		// least 1.25x, so n lines take fewer than 4·log2(n) grows.
		if limit := 4 + 4*math.Log2(float64(n)); reads[i] > limit {
			t.Errorf("ReadTrace of %d lines: %.0f allocations, want at most %.0f", n, reads[i], limit)
		}
	}
	if writes[0] != writes[1] || writes[1] > 3 {
		t.Errorf("WriteTrace: %.0f allocations for 1 000 lines, %.0f for 100 000; want the same few", writes[0], writes[1])
	}
}
