package workload

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strconv"

	"flexpass/internal/sim"
)

// Flow traces can be exported to and replayed from a simple CSV format,
// so generated workloads are inspectable and custom traces (e.g. from a
// production sniffer) can drive the harness:
//
//	at_us,src,dst,size_bytes,incast
//	12.500,3,17,20480,0

// WriteTrace serializes flows as CSV. Arrival times print as fmt's
// %.3f of At.Micros() would print them (see appendMicros).
func WriteTrace(w io.Writer, flows []FlowSpec) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("at_us,src,dst,size_bytes,incast\n"); err != nil {
		return err
	}
	line := make([]byte, 0, 128)
	for _, f := range flows {
		line = appendMicros(line[:0], f.At)
		line = append(line, ',')
		line = strconv.AppendInt(line, int64(f.Src), 10)
		line = append(line, ',')
		line = strconv.AppendInt(line, int64(f.Dst), 10)
		line = append(line, ',')
		line = strconv.AppendInt(line, f.Size, 10)
		inc := byte('0')
		if f.Incast {
			inc = '1'
		}
		line = append(line, ',', inc, '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// appendMicros appends t in microseconds with three decimals, the bytes
// fmt's %.3f prints for t.Micros(). Below 2^50 ps the float64 quotient
// is within 2^-23 µs of t/10^6, nearer than the 10^-6 µs that separates
// t from a rounding boundary unless t is an exact half nanosecond, so
// rounding the integer picoseconds to the nanosecond gives the same
// digits. Half-nanosecond ties, negative and larger times take strconv's
// exact decimal conversion of the float64, which is what fmt does.
func appendMicros(b []byte, t sim.Time) []byte {
	if t < 0 || t >= 1<<50 || t%1000 == 500 {
		return strconv.AppendFloat(b, t.Micros(), 'f', 3, 64)
	}
	ns := int64(t+500) / 1000
	b = strconv.AppendInt(b, ns/1000, 10)
	frac := ns % 1000
	return append(b, '.', byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
}

// TraceID returns a stable identity for a trace-driven workload:
// "trace:" plus a short digest of the flows' canonical CSV form. Runs
// fed the same flow list get the same ID regardless of the trace
// file's name, comment lines, or field formatting quirks.
func TraceID(flows []FlowSpec) string {
	h := sha256.New()
	// WriteTrace to a hash never fails: the hash sink cannot error.
	_ = WriteTrace(h, flows)
	return "trace:" + hex.EncodeToString(h.Sum(nil))[:12]
}

// ReadTrace parses a CSV trace. Lines are validated strictly: a malformed
// line aborts with its line number. Fields are parsed in place in the
// scanner's buffer, so only growing the result allocates.
//
// An arrival time reads as sim.Time(at_us × 10^6), truncated: "1.001"
// is 1 000 999 ps, 1 ps short of the time it prints, as 1 to 2 % of
// three-decimal values read. A WriteTrace→ReadTrace round trip of
// nanosecond times is therefore off by at most 1 ps; other times, a
// generated trace's, are rounded to the nanosecond by WriteTrace and
// come back up to 501 ps early or 500 ps late. Reading a trace written
// from a read trace gives the same flows again
// (TestReadTraceTruncatesToThePicosecond).
func ReadTrace(r io.Reader) ([]FlowSpec, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	var flows []FlowSpec
	lineNo := 0
	seenData := false
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		// The header is skipped wherever it first appears: comment and
		// blank lines may legitimately precede it, so this must not be
		// pinned to line 1.
		if !seenData && bytes.HasPrefix(line, []byte("at_us")) {
			continue
		}
		seenData = true
		if n := bytes.Count(line, []byte(",")) + 1; n != 5 {
			return nil, fmt.Errorf("workload: trace line %d: want 5 fields, got %d", lineNo, n)
		}
		var fields [5][]byte
		rest := line
		for i := range 4 {
			fields[i], rest, _ = bytes.Cut(rest, []byte(","))
		}
		fields[4] = rest
		atUS, err := strconv.ParseFloat(string(fields[0]), 64)
		if err != nil || atUS < 0 {
			return nil, fmt.Errorf("workload: trace line %d: bad arrival time %q", lineNo, fields[0])
		}
		src, err := strconv.Atoi(string(fields[1]))
		if err != nil || src < 0 {
			return nil, fmt.Errorf("workload: trace line %d: bad src %q", lineNo, fields[1])
		}
		dst, err := strconv.Atoi(string(fields[2]))
		if err != nil || dst < 0 {
			return nil, fmt.Errorf("workload: trace line %d: bad dst %q", lineNo, fields[2])
		}
		if src == dst {
			return nil, fmt.Errorf("workload: trace line %d: src == dst == %d", lineNo, src)
		}
		size, err := strconv.ParseInt(string(fields[3]), 10, 64)
		if err != nil || size <= 0 {
			return nil, fmt.Errorf("workload: trace line %d: bad size %q", lineNo, fields[3])
		}
		inc, err := strconv.Atoi(string(fields[4]))
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
	stableSortByAt(flows)
	return flows, nil
}
