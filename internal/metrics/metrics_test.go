package metrics_test

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"flexpass/internal/metrics"
	"flexpass/internal/obs"
	"flexpass/internal/sim"
	"flexpass/internal/units"
)

func rec(size int64, fct sim.Time, legacy bool) metrics.FlowRecord {
	return metrics.FlowRecord{Size: size, FCT: fct, Completed: true, Legacy: legacy}
}

func TestFilterSmallFlows(t *testing.T) {
	c := metrics.Collector{Records: []metrics.FlowRecord{
		rec(50_000, sim.Millisecond, true),
		rec(200_000, 2*sim.Millisecond, true),
		rec(99_999, 3*sim.Millisecond, false),
		{Size: 10, FCT: -1},
	}}
	if fcts := c.FCTs(metrics.Small()); !slices.Equal(fcts, []sim.Time{sim.Millisecond, 3 * sim.Millisecond}) {
		t.Fatalf("small-flow FCTs = %v", fcts)
	}
	if fcts := c.FCTs(metrics.Filter{}); len(fcts) != 3 {
		t.Fatalf("completed FCTs = %v, want 3", fcts)
	}
	s := metrics.Summarize(c.Records)
	if s.SmallCompleted != 2 || s.Incomplete() != 1 || s.P99SmallLegacy != sim.Millisecond {
		t.Fatalf("small %d, incomplete %d, legacy small p99 %v; want 2, 1, 1ms",
			s.SmallCompleted, s.Incomplete(), s.P99SmallLegacy)
	}
}

// TestSummarize pins every field of the one reducer on a table small
// enough to check by hand.
func TestSummarize(t *testing.T) {
	us := sim.Microsecond
	recs := []metrics.FlowRecord{
		{Size: 1000, Start: 0, FCT: 10 * us, Completed: true, Legacy: true, RxBytes: 1000, Timeouts: 1},
		{Size: 2000, Start: 5 * us, FCT: 30 * us, Completed: true, Legacy: true, RxBytes: 2000, Retransmits: 2},
		{Size: 3000, Start: 1 * us, FCT: 20 * us, Completed: true, RxBytes: 3000, MaxReorderB: 4000, Redundant: 1},
		{Size: 500_000, Start: 2 * us, FCT: 400 * us, Completed: true, RxBytes: 500_000, MaxReorderB: 2000},
		{Size: 4000, Start: 3 * us, FCT: -1, RxBytes: 1460, Timeouts: 3},
	}
	got := metrics.Summarize(recs)
	want := metrics.Summary{
		Flows: 5, Completed: 4, SmallCompleted: 3,
		RxBytes: 507_460, Timeouts: 4, Retransmits: 2,
		MeanFCT: 115 * us, P50FCT: 20 * us, P99FCT: 400 * us, MaxFCT: 400 * us,
		P99Small: 30 * us, P99SmallLegacy: 30 * us, P99SmallNew: 20 * us,
		StdSmallLegacy: 10 * us, StdSmallNew: 0,
		ReorderKB:     2, // (4000 + 2000 + 0) / 3 upgraded flows
		RedundantFrac: 1460.0 / 507_460,
		LastFinish:    402 * us,
	}
	if got != want {
		t.Fatalf("Summarize:\n got %+v\nwant %+v", got, want)
	}
	if got.Incomplete() != 1 {
		t.Fatalf("incomplete = %d", got.Incomplete())
	}
	// 507 460 B in 1 ms is 4.05968 Gb/s.
	if g := got.GoodputGbps(sim.Millisecond); g < 4.0596 || g > 4.0597 {
		t.Fatalf("goodput = %g", g)
	}
	if z := metrics.Summarize(nil); z != (metrics.Summary{}) || z.GoodputGbps(0) != 0 {
		t.Fatalf("empty table: %+v", z)
	}
}

func TestStatsBasics(t *testing.T) {
	ts := []sim.Time{1, 2, 3, 4, 5}
	if metrics.Mean(ts) != 3 {
		t.Fatalf("mean = %v", metrics.Mean(ts))
	}
	if slices.Max(ts) != 5 {
		t.Fatalf("max = %v", slices.Max(ts))
	}
	if p := metrics.Percentile(ts, 0.5); p != 3 {
		t.Fatalf("median = %v", p)
	}
	if p := metrics.Percentile(ts, 0.99); p != 5 {
		t.Fatalf("p99 = %v", p)
	}
	if p := metrics.Percentile(ts, 1.0); p != 5 {
		t.Fatalf("p100 = %v", p)
	}
	if metrics.Mean(nil) != 0 || metrics.Percentile(nil, 0.5) != 0 || metrics.StdDev(nil) != 0 {
		t.Fatal("empty inputs must yield 0")
	}
}

func TestStdDev(t *testing.T) {
	ts := []sim.Time{2, 4, 4, 4, 5, 5, 7, 9}
	if got := metrics.StdDev(ts); got != 2 {
		t.Fatalf("stddev = %v, want 2", got)
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []uint32, a, b uint8) bool {
		if len(raw) == 0 {
			return true
		}
		ts := make([]sim.Time, len(raw))
		for i, r := range raw {
			ts[i] = sim.Time(r)
		}
		pa := float64(a%100+1) / 100
		pb := float64(b%100+1) / 100
		if pa > pb {
			pa, pb = pb, pa
		}
		qa, qb := metrics.Percentile(ts, pa), metrics.Percentile(ts, pb)
		return qa <= qb && qb <= slices.Max(ts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

// startProber samples reg every interval. The samplers this package used
// to own are gone — obs.Prober is the one sampler — and the sampler tests
// replay their cases through it, same scenarios and same expected
// series, so the statistics here are fed what they were fed before.
func startProber(eng *sim.Engine, reg *obs.Registry, interval sim.Time) *obs.Prober {
	p := obs.NewProber(eng, reg, &obs.Options{ProbeInterval: interval})
	p.Start()
	return p
}

// ratesOf converts the per-interval byte deltas of a prober's first
// series to throughputs.
func ratesOf(p *obs.Prober) []units.Rate {
	var out []units.Rate
	p.Series()[0].Values.Each(func(_ int, d int64) {
		out = append(out, units.RateOf(d, p.Interval()))
	})
	return out
}

func TestSamplerSeries(t *testing.T) {
	eng := sim.NewEngine(1)
	var bytesA int64
	reg := obs.NewRegistry()
	reg.CounterFunc("group", "a", func() int64 { return bytesA })
	p := startProber(eng, reg, sim.Millisecond)
	// 1MB/ms for 5ms then idle.
	for i := 1; i <= 5; i++ {
		eng.At(sim.Time(i)*sim.Millisecond-sim.Microsecond, func() { bytesA += 1_000_000 })
	}
	eng.Run(8 * sim.Millisecond)
	rates := ratesOf(p)
	if len(rates) != 8 {
		t.Fatalf("%d samples, want 8", len(rates))
	}
	if rates[0] != 8*units.Gbps {
		t.Fatalf("rate[0] = %v, want 8Gbps", rates[0])
	}
	if rates[7] != 0 {
		t.Fatalf("idle rate = %v, want 0", rates[7])
	}
}

func TestStarvationFraction(t *testing.T) {
	g := 1 * units.Gbps
	a := []units.Rate{10 * g, 10 * g, 1 * g, 1 * g}
	b := []units.Rate{1 * g, 1 * g, 10 * g, 10 * g}
	fa, fb := metrics.StarvationFraction(a, b, 2*g, false)
	if fa != 0.5 || fb != 0.5 {
		t.Fatalf("fractions = %v %v, want 0.5 0.5", fa, fb)
	}
	// skipIdle drops all-zero windows.
	a2 := []units.Rate{0, 10 * g}
	b2 := []units.Rate{0, 1 * g}
	fa2, fb2 := metrics.StarvationFraction(a2, b2, 2*g, true)
	if fa2 != 0 || fb2 != 1 {
		t.Fatalf("skipIdle fractions = %v %v, want 0 1", fa2, fb2)
	}
}

func TestQueueSampler(t *testing.T) {
	eng := sim.NewEngine(1)
	occ := int64(0)
	reg := obs.NewRegistry()
	reg.Gauge("q", "bytes", func() int64 { return occ })
	p := startProber(eng, reg, sim.Millisecond)
	eng.At(1500*sim.Microsecond, func() { occ = 100_000 })
	eng.Run(4 * sim.Millisecond)
	totals := p.Series()[0].Values.Slice()
	if len(totals) != 4 {
		t.Fatalf("%d samples, want 4", len(totals))
	}
	mean, p90 := metrics.Stats(totals, 0.9)
	if mean != 75_000 {
		t.Fatalf("mean = %d, want 75000", mean)
	}
	if p90 != 100_000 {
		t.Fatalf("p90 = %d, want 100000", p90)
	}
}

// quantiles is the nearest-rank curve of ts at n evenly spaced
// probabilities ((i+1)/n for i in [0,n)) — an FCT CDF ready for plotting
// — one Percentile per point.
func quantiles(ts []sim.Time, n int) []sim.Time {
	var out []sim.Time
	for i := 0; i < n; i++ {
		out = append(out, metrics.Percentile(ts, float64(i+1)/float64(n)))
	}
	return out
}

func TestQuantiles(t *testing.T) {
	ts := []sim.Time{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	q := quantiles(ts, 5)
	want := []sim.Time{2, 4, 6, 8, 10}
	for i := range want {
		if q[i] != want[i] {
			t.Fatalf("quantiles = %v, want %v", q, want)
		}
	}
	// Monotone.
	for i := 1; i < len(q); i++ {
		if q[i] < q[i-1] {
			t.Fatal("quantile curve not monotone")
		}
	}
}

func TestQuantilesEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		in   []sim.Time
		n    int
		want []sim.Time
	}{
		{"empty input", nil, 2, []sim.Time{0, 0}},
		{"empty slice", []sim.Time{}, 1, []sim.Time{0}},
		{"zero quantiles", []sim.Time{1, 2}, 0, nil},
		{"negative quantiles", []sim.Time{1, 2}, -3, nil},
		{"single sample", []sim.Time{42}, 4, []sim.Time{42, 42, 42, 42}},
		{"more quantiles than samples", []sim.Time{10, 20}, 4, []sim.Time{10, 10, 20, 20}},
		{"n equals len", []sim.Time{3, 1, 2}, 3, []sim.Time{1, 2, 3}},
		{"one quantile is the max", []sim.Time{5, 1, 9}, 1, []sim.Time{9}},
		{"duplicates", []sim.Time{7, 7, 7, 7}, 2, []sim.Time{7, 7}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := make([]sim.Time, len(tc.in))
			copy(in, tc.in)
			got := quantiles(in, tc.n)
			if len(got) != len(tc.want) {
				t.Fatalf("quantiles(%v, %d) = %v, want %v", tc.in, tc.n, got, tc.want)
			}
			for i := range tc.want {
				if got[i] != tc.want[i] {
					t.Fatalf("quantiles(%v, %d) = %v, want %v", tc.in, tc.n, got, tc.want)
				}
			}
			for i, v := range tc.in {
				if in[i] != v {
					t.Fatal("Percentile mutated its input")
				}
			}
		})
	}
}

func TestPercentileEdgeCases(t *testing.T) {
	if metrics.Percentile(nil, 0.99) != 0 {
		t.Fatal("empty input must yield 0")
	}
	ts := []sim.Time{30, 10, 20}
	if got := metrics.Percentile(ts, 0); got != 10 { // clamps to the minimum
		t.Fatalf("p0 = %v, want 10", got)
	}
	if got := metrics.Percentile(ts, 1); got != 30 {
		t.Fatalf("p100 = %v, want 30", got)
	}
	if got := metrics.Percentile([]sim.Time{5}, 0.5); got != 5 {
		t.Fatalf("single-sample p50 = %v, want 5", got)
	}
}
