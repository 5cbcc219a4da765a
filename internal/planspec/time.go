// Package planspec holds the small wire vocabulary shared by the
// repo's data-driven document formats (fault plans, workload plans,
// sweep and chaos specs, repros): the strict decoder every parser sits
// on, and a sim.Time JSON codec with forgiving input and canonical
// output. The plan families hash their canonical JSON as the scenario
// identity, so the codec lives in one place and marshals
// deterministically.
package planspec

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"flexpass/internal/sim"
)

// DecodeStrict decodes data into v as exactly one JSON document: a field
// v does not declare is an error (a typo'd key fails loudly instead of
// being ignored), and so is anything but whitespace after the document.
func DecodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON document")
	}
	return nil
}

// TimeSpec is a sim.Time with a forgiving JSON form: a bare number is
// picoseconds (the artifact convention), a string accepts a unit suffix
// ("250us", "2ms", "1.5s"). It always marshals as exact picoseconds so
// a plan round-trips losslessly and hashes canonically.
type TimeSpec sim.Time

// Time converts to the engine clock.
func (t TimeSpec) Time() sim.Time { return sim.Time(t) }

// MarshalJSON emits exact picoseconds.
func (t TimeSpec) MarshalJSON() ([]byte, error) {
	return []byte(strconv.FormatInt(int64(t), 10)), nil
}

// UnmarshalJSON accepts a picosecond number or a unit-suffixed string.
func (t *TimeSpec) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		d, err := ParseTime(s)
		if err != nil {
			return err
		}
		*t = TimeSpec(d)
		return nil
	}
	var ps int64
	if err := json.Unmarshal(b, &ps); err != nil {
		return fmt.Errorf("time must be a picosecond number or a unit-suffixed string: %w", err)
	}
	*t = TimeSpec(ps)
	return nil
}

// ParseTime parses "2ms", "250us", "1.5s", "40ns", "7ps". A bare number
// string is picoseconds. Values that are not finite or do not fit the
// picosecond clock are rejected: converting them to an integer is
// implementation-defined and differs between amd64 and arm64.
func ParseTime(s string) (sim.Time, error) {
	s = strings.TrimSpace(s)
	unit := sim.Picosecond
	switch {
	case strings.HasSuffix(s, "ps"):
		s = s[:len(s)-2]
	case strings.HasSuffix(s, "ns"):
		s, unit = s[:len(s)-2], sim.Nanosecond
	case strings.HasSuffix(s, "us"):
		s, unit = s[:len(s)-2], sim.Microsecond
	case strings.HasSuffix(s, "ms"):
		s, unit = s[:len(s)-2], sim.Millisecond
	case strings.HasSuffix(s, "s"):
		s, unit = s[:len(s)-1], sim.Second
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, fmt.Errorf("bad time %q: %w", s, err)
	}
	ps := v * float64(unit)
	if math.IsNaN(ps) || math.Abs(ps) >= 1<<63 {
		return 0, fmt.Errorf("bad time %q: not a finite picosecond count", s)
	}
	return sim.Time(ps), nil
}

// ParseWindow parses "START-END" or "START" (end 0 = open).
func ParseWindow(w string) (at, end sim.Time, err error) {
	lo, hi, ok := strings.Cut(w, "-")
	if at, err = ParseTime(lo); err != nil {
		return 0, 0, err
	}
	if !ok {
		return at, 0, nil
	}
	if end, err = ParseTime(hi); err != nil {
		return 0, 0, err
	}
	return at, end, nil
}
