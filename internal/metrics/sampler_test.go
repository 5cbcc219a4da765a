package metrics_test

import (
	"testing"

	"flexpass/internal/metrics"
	"flexpass/internal/obs"
	"flexpass/internal/sim"
	"flexpass/internal/units"
)

func TestSamplerDeltasAndRates(t *testing.T) {
	eng := sim.NewEngine(1)
	reg := obs.NewRegistry()

	var bytes int64
	reg.CounterFunc("group", "grp", func() int64 { return bytes })
	// Registration must dedup names: re-registering replaces the source
	// without doubling the per-tick appends.
	reg.CounterFunc("group", "grp", func() int64 { return bytes })

	// Add 100 bytes at 5µs offsets so each 10µs window sees exactly one
	// addition regardless of same-instant tie-breaking.
	for i := 0; i < 8; i++ {
		eng.At(sim.Time(5+10*i)*sim.Microsecond, func() { bytes += 100 })
	}
	p := startProber(eng, reg, 10*sim.Microsecond)
	p.Start() // idempotent
	eng.Run(45 * sim.Microsecond)

	if len(p.Series()) != 1 {
		t.Fatalf("%d series, want 1 (duplicate registration added a source?)", len(p.Series()))
	}
	deltas := p.Series()[0].Values.Slice()
	if len(deltas) != 4 {
		t.Fatalf("series len = %d, want 4 (duplicate registration doubled samples?)", len(deltas))
	}
	for i, d := range deltas {
		if d != 100 {
			t.Fatalf("delta[%d] = %d, want 100", i, d)
		}
	}

	rates := ratesOf(p)
	if len(rates) != 4 {
		t.Fatalf("rates len = %d", len(rates))
	}
	want := units.RateOf(100, 10*sim.Microsecond)
	for i, r := range rates {
		if r != want {
			t.Fatalf("rate[%d] = %v, want %v", i, r, want)
		}
	}
	if p.Interval() != 10*sim.Microsecond {
		t.Fatalf("interval = %v", p.Interval())
	}
}

func TestStarvationFractionEdgeCases(t *testing.T) {
	mk := func(vals ...int64) []units.Rate {
		out := make([]units.Rate, len(vals))
		for i, v := range vals {
			out[i] = units.Rate(v)
		}
		return out
	}
	// Length mismatch truncates to the shorter series.
	fa, fb := metrics.StarvationFraction(mk(0), mk(0, 100, 100), 10, false)
	if fa != 1 || fb != 1 {
		t.Fatalf("truncation: fa=%v fb=%v", fa, fb)
	}
	if fa, fb := metrics.StarvationFraction(nil, nil, 10, false); fa != 0 || fb != 0 {
		t.Fatal("empty input must be 0/0")
	}
	if fa, fb := metrics.StarvationFraction(mk(0), mk(0), 10, true); fa != 0 || fb != 0 {
		t.Fatal("all-idle with skipIdle must be 0/0")
	}
}

func TestQueueSamplerCollects(t *testing.T) {
	eng := sim.NewEngine(1)
	reg := obs.NewRegistry()

	var total, red int64
	reg.Gauge("q0", "bytes", func() int64 { return total })
	reg.Gauge("q0", "red_bytes", func() int64 { return red })
	reg.Gauge("q1", "bytes", func() int64 { return 2 * total })
	reg.Gauge("q1", "red_bytes", func() int64 { return red })

	eng.At(5*sim.Microsecond, func() { total, red = 100, 30 })
	p := startProber(eng, reg, 10*sim.Microsecond)
	p.Start() // idempotent
	eng.Run(25 * sim.Microsecond)

	// Two sources × two ticks, folded series by series as harness.Run does.
	var totals, reds []int64
	for _, s := range p.Series() {
		if s.Metric == "bytes" {
			totals = s.Values.AppendTo(totals)
		} else {
			reds = s.Values.AppendTo(reds)
		}
	}
	if len(totals) != 4 || len(reds) != 4 {
		t.Fatalf("samples = %d/%d, want 4/4", len(totals), len(reds))
	}
	wantTotals := []int64{100, 100, 200, 200}
	for i, v := range totals {
		if v != wantTotals[i] {
			t.Fatalf("totals[%d] = %d, want %d", i, v, wantTotals[i])
		}
		if reds[i] != 30 {
			t.Fatalf("reds[%d] = %d, want 30", i, reds[i])
		}
	}
}

func TestStatsMeanAndQuantile(t *testing.T) {
	mean, p90 := metrics.Stats([]int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 0.9)
	if mean != 55 {
		t.Fatalf("mean = %d, want 55", mean)
	}
	if p90 != 90 {
		t.Fatalf("p90 = %d, want 90", p90)
	}
	if mean, pctl := metrics.Stats(nil, 0.9); mean != 0 || pctl != 0 {
		t.Fatal("empty Stats must be 0/0")
	}
}
