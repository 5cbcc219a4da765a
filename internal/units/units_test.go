package units

import (
	"math/rand"
	"testing"
	"testing/quick"

	"flexpass/internal/sim"
)

func TestTxTimeExact(t *testing.T) {
	// A 1538-byte frame at 40Gbps serializes in exactly 307.6ns.
	got := (40 * Gbps).TxTime(1538)
	if got != 307600*sim.Picosecond {
		t.Fatalf("TxTime = %v ps, want 307600", int64(got))
	}
	// 1000 bytes at 1Gbps is exactly 8us.
	if got := (1 * Gbps).TxTime(1000); got != 8*sim.Microsecond {
		t.Fatalf("TxTime = %v, want 8us", got)
	}
}

func TestTxTimeMonotoneInSize(t *testing.T) {
	f := func(a, b uint16) bool {
		r := 10 * Gbps
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return r.TxTime(x) <= r.TxTime(y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

func TestRateOfRoundTrip(t *testing.T) {
	// Moving N bytes in the serialization time of N bytes recovers the rate
	// to within rounding.
	for _, r := range []Rate{1 * Gbps, 10 * Gbps, 40 * Gbps, 100 * Gbps} {
		d := r.TxTime(1_000_000)
		got := RateOf(1_000_000, d)
		diff := float64(got-r) / float64(r)
		if diff < -1e-6 || diff > 1e-6 {
			t.Errorf("RateOf round trip for %v: got %v", r, got)
		}
	}
}

func TestScale(t *testing.T) {
	if got := (40 * Gbps).Scale(0.5); got != 20*Gbps {
		t.Fatalf("Scale(0.5) = %v", got)
	}
	if got := (10 * Gbps).Scale(0.054); got != Rate(540*Mbps) {
		t.Fatalf("Scale(0.054) = %v", got)
	}
}

func TestStrings(t *testing.T) {
	if s := (40 * Gbps).String(); s != "40.00Gbps" {
		t.Errorf("rate string = %q", s)
	}
	if s := (ByteSize(64 * KB)).String(); s != "64.00KB" {
		t.Errorf("size string = %q", s)
	}
	if s := (ByteSize(100)).String(); s != "100B" {
		t.Errorf("size string = %q", s)
	}
}

func TestRateStringBranches(t *testing.T) {
	cases := map[Rate]string{
		2500 * Mbps: "2.50Gbps",
		250 * Mbps:  "250.00Mbps",
		30 * Kbps:   "30.00Kbps",
		Rate(500):   "500bps",
	}
	for r, want := range cases {
		if got := r.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int64(r), got, want)
		}
	}
}

func TestByteSizeStringBranches(t *testing.T) {
	cases := map[ByteSize]string{
		3 * GB:  "3.00GB",
		2 * MB:  "2.00MB",
		64 * KB: "64.00KB",
		100:     "100B",
	}
	for b, want := range cases {
		if got := b.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int64(b), got, want)
		}
	}
}

func TestGbits(t *testing.T) {
	if (40 * Gbps).Gbits() != 40 {
		t.Fatal("Gbits wrong")
	}
}

func TestTxTimeZeroRatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("TxTime on zero rate must panic")
		}
	}()
	Rate(0).TxTime(100)
}

func TestRateOfZeroDuration(t *testing.T) {
	if RateOf(1000, 0) != 0 {
		t.Fatal("zero duration must yield zero rate")
	}
}
