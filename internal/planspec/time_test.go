package planspec

import (
	"encoding/json"
	"strings"
	"testing"

	"flexpass/internal/sim"
)

func TestParseTime(t *testing.T) {
	for _, c := range []struct {
		in   string
		want sim.Time
	}{
		{"7ps", 7},
		{"40ns", 40 * sim.Nanosecond},
		{"250us", 250 * sim.Microsecond},
		{"2ms", 2 * sim.Millisecond},
		{"1.5s", 1500 * sim.Millisecond},
		{"1234", 1234}, // bare picoseconds
		{"  2ms ", 2 * sim.Millisecond},
		{"2 ms", 2 * sim.Millisecond},
		{"-1ms", -sim.Millisecond},
		{"0", 0},
	} {
		got, err := ParseTime(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseTime(%q) = %d, %v; want %d", c.in, got, err, c.want)
		}
	}
}

// Non-finite and out-of-range values used to come back as
// math.MinInt64 with a nil error on amd64 (and saturate the other way on
// arm64); they are input errors.
func TestParseTimeRejects(t *testing.T) {
	for _, in := range []string{
		"", "ms", "2 fortnights", "1..5ms", "0x10ns",
		"NaNus", "Infms", "-Infms", "1e30s", "-1e30s", "9223372036854775808", "1e309",
	} {
		got, err := ParseTime(in)
		if err == nil || !strings.Contains(err.Error(), "bad time") {
			t.Errorf("ParseTime(%q) = %d, %v; want a bad time error", in, got, err)
		}
	}
	// The largest window the clock can hold still parses.
	if _, err := ParseTime("9e6s"); err != nil {
		t.Errorf("ParseTime(9e6s): %v", err)
	}
}

func TestParseWindow(t *testing.T) {
	at, end, err := ParseWindow("1ms-2500us")
	if err != nil || at != sim.Millisecond || end != 2500*sim.Microsecond {
		t.Fatalf("closed window = %d, %d, %v", at, end, err)
	}
	at, end, err = ParseWindow("3ms")
	if err != nil || at != 3*sim.Millisecond || end != 0 {
		t.Fatalf("open window = %d, %d, %v", at, end, err)
	}
	for _, in := range []string{"", "1ms-", "-2ms", "x-2ms", "1ms-1e30s", "NaNus-2ms"} {
		if _, _, err := ParseWindow(in); err == nil {
			t.Errorf("ParseWindow(%q) accepted", in)
		}
	}
}

func TestTimeSpecJSON(t *testing.T) {
	type doc struct {
		At  TimeSpec `json:"at"`
		End TimeSpec `json:"end"`
	}
	var d doc
	if err := json.Unmarshal([]byte(`{"at":"250us","end":3000000}`), &d); err != nil {
		t.Fatal(err)
	}
	if d.At.Time() != 250*sim.Microsecond || d.End.Time() != 3*sim.Microsecond {
		t.Fatalf("decoded %d, %d", d.At, d.End)
	}
	// Output is always exact picoseconds, and reads back as itself.
	out, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != `{"at":250000000,"end":3000000}` {
		t.Fatalf("marshalled %s", out)
	}
	var back doc
	if err := json.Unmarshal(out, &back); err != nil || back != d {
		t.Fatalf("round trip %+v, %v; want %+v", back, err, d)
	}
	for _, in := range []string{`{"at":"Infms"}`, `{"at":1.5}`, `{"at":true}`, `{"at":"1e30s"}`} {
		if err := json.Unmarshal([]byte(in), &d); err == nil {
			t.Errorf("Unmarshal(%s) accepted", in)
		}
	}
}

func TestDecodeStrict(t *testing.T) {
	type doc struct {
		Name string `json:"name"`
	}
	var d doc
	if err := DecodeStrict([]byte(" {\"name\":\"a\"}\n\t "), &d); err != nil || d.Name != "a" {
		t.Fatalf("one document with surrounding whitespace: %+v, %v", d, err)
	}
	for _, in := range []string{
		`{"name":"a","nmae":"b"}`,   // unknown field
		`{"name":"a"} {"name":"b"}`, // second document
		`{"name":"a"} trailing`,     // garbage
		`{"name":"a"}}`,             // a closer json.Decoder.More does not report
		`{"name":"a"}]`,
		`{"name":`,
		``,
	} {
		if err := DecodeStrict([]byte(in), &d); err == nil {
			t.Errorf("DecodeStrict(%q) accepted", in)
		}
	}
}
