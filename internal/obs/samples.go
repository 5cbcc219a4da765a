package obs

import (
	"bytes"
	"fmt"
	"strconv"
)

// Samples is a sequence of int64 samples held as (value, count) runs.
// Probe series are mostly flat — an idle port reads zero for the whole
// run — so a series costs memory per value change, not per tick: a
// constant series is one run however long it gets, and one that changes
// on every tick pays 16 B a sample.
//
// It is the series representation end to end: the prober builds it once
// its ticks are over, the artifact carries it, and on the wire it is the
// plain JSON array a []int64 encodes to (null when nil, [] when empty).
// Like a slice, a copy shares storage with the original: append to one of
// them only.
type Samples struct {
	runs []valueRun // adjacent runs always differ in value
	n    int
}

type valueRun struct{ v, n int64 }

// Len reports how many samples are held.
func (s Samples) Len() int { return s.n }

// Runs reports how many (value, count) runs back the sequence, 16 B
// each: one more than the number of times the value changed.
func (s Samples) Runs() int { return len(s.runs) }

// Append adds v as the newest sample.
func (s *Samples) Append(v int64) { s.appendRun(v, 1) }

func (s *Samples) appendRun(v, n int64) {
	if k := len(s.runs); k > 0 && s.runs[k-1].v == v {
		s.runs[k-1].n += n
	} else {
		s.runs = append(s.runs, valueRun{v, n})
	}
	s.n += int(n)
}

// Each calls fn with the index and value of every sample, oldest first.
func (s Samples) Each(fn func(i int, v int64)) {
	i := 0
	for _, r := range s.runs {
		for end := i + int(r.n); i < end; i++ {
			fn(i, r.v)
		}
	}
}

// AppendTo appends the samples to dst, oldest first.
func (s Samples) AppendTo(dst []int64) []int64 {
	for _, r := range s.runs {
		for k := int64(0); k < r.n; k++ {
			dst = append(dst, r.v)
		}
	}
	return dst
}

// Slice returns the samples as a new slice, nil for a nil sequence.
func (s Samples) Slice() []int64 {
	if s.runs == nil {
		return nil
	}
	return s.AppendTo(make([]int64, 0, s.n))
}

// plus returns the pointwise sum of two sequences of equal length,
// walking both run lists once.
func (s Samples) plus(o Samples) Samples {
	out := Samples{runs: make([]valueRun, 0, max(len(s.runs), len(o.runs)))}
	a, b := s.runs, o.runs
	var ra, rb valueRun // what is left of the current run on each side
	for {
		if ra.n == 0 {
			if len(a) == 0 {
				return out
			}
			ra, a = a[0], a[1:]
		}
		if rb.n == 0 {
			if len(b) == 0 {
				return out
			}
			rb, b = b[0], b[1:]
		}
		k := min(ra.n, rb.n)
		out.appendRun(ra.v+rb.v, k)
		ra.n -= k
		rb.n -= k
	}
}

// MarshalJSON emits what json.Marshal emits for the same []int64.
func (s Samples) MarshalJSON() ([]byte, error) { return s.AppendJSON(nil), nil }

// AppendJSON appends the wire form to dst: the JSON array a []int64 of
// the same samples encodes to, null when nil, [] when empty. Each run's
// value is formatted once, so a flat series costs one number and a copy
// per sample.
func (s Samples) AppendJSON(dst []byte) []byte {
	if s.runs == nil {
		return append(dst, "null"...)
	}
	var num [20]byte
	dst = append(dst, '[')
	for _, r := range s.runs {
		d := strconv.AppendInt(num[:0], r.v, 10)
		for k := int64(0); k < r.n; k++ {
			dst = append(append(dst, d...), ',')
		}
	}
	if s.n > 0 {
		dst = dst[:len(dst)-1]
	}
	return append(dst, ']')
}

// UnmarshalJSON decodes a JSON array straight into runs, accepting and
// rejecting what decoding into a []int64 does: null resets to nil, a
// null element reads as zero, and a float, an integer outside int64, a
// string, or a nested value is an error. Only integers, nulls, commas
// and blanks can pass, so the array is split at its commas.
func (s *Samples) UnmarshalJSON(data []byte) error {
	const blank = " \t\r\n"
	*s = Samples{}
	p := bytes.Trim(data, blank)
	if string(p) == "null" {
		return nil
	}
	if len(p) < 2 || p[0] != '[' || p[len(p)-1] != ']' {
		return fmt.Errorf("obs: samples: want an array of integers, have %.20q", p)
	}
	s.runs = []valueRun{}
	p = bytes.Trim(p[1:len(p)-1], blank)
	for more := len(p) > 0; more; {
		var tok []byte
		tok, p, more = bytes.Cut(p, []byte{','})
		tok = bytes.Trim(tok, blank)
		var v int64
		if string(tok) != "null" {
			// ParseInt takes a plus sign and leading zeros; JSON does not.
			d := bytes.TrimPrefix(tok, []byte{'-'})
			if len(d) == 0 || d[0] < '0' || d[0] > '9' || d[0] == '0' && len(d) > 1 {
				return fmt.Errorf("obs: samples: want an integer, have %.20q", tok)
			}
			var err error
			if v, err = strconv.ParseInt(string(tok), 10, 64); err != nil {
				return fmt.Errorf("obs: samples: %w", err)
			}
		}
		s.Append(v)
	}
	return nil
}
