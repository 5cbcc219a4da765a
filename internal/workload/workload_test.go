package workload

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"flexpass/internal/sim"
	"flexpass/internal/units"
)

func TestCDFMeansReasonable(t *testing.T) {
	cases := []struct {
		c        *CDF
		min, max float64
	}{
		{WebSearch, 500_000, 5_000_000},     // ~1.6MB
		{DataMining, 1_000_000, 30_000_000}, // heavy tail
		{CacheFollower, 50_000, 2_000_000},
		{Hadoop, 10_000, 300_000},
	}
	for _, c := range cases {
		m := c.c.Mean()
		if m < c.min || m > c.max {
			t.Errorf("%s mean = %.0f, want in [%.0f, %.0f]", c.c.Name, m, c.min, c.max)
		}
	}
}

func TestCDFSampleMatchesMean(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, c := range []*CDF{WebSearch, DataMining, CacheFollower, Hadoop} {
		var sum float64
		const n = 200000
		for i := 0; i < n; i++ {
			sum += float64(c.Sample(r))
		}
		emp := sum / n
		want := c.Mean()
		if emp < want*0.9 || emp > want*1.1 {
			t.Errorf("%s empirical mean %.0f vs analytic %.0f", c.Name, emp, want)
		}
	}
}

func TestCDFSampleWithinSupport(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 100; i++ {
			s := WebSearch.Sample(r)
			if s < 1 || s > 30_000_000 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCDFSampleMonotoneInQuantile(t *testing.T) {
	// Larger u must produce larger (or equal) sizes: verified indirectly
	// via sorted percentile checks.
	r := rand.New(rand.NewSource(1))
	small, large := 0, 0
	for i := 0; i < 10000; i++ {
		s := WebSearch.Sample(r)
		if s <= 100_000 {
			small++
		}
		if s >= 1_000_000 {
			large++
		}
	}
	// CDF says 55-ish% of flows are <=100kB and 30% >= 1MB.
	if small < 4500 || small > 6500 {
		t.Errorf("small fraction %d/10000, want ~5500", small)
	}
	if large < 2400 || large > 3600 {
		t.Errorf("large fraction %d/10000, want ~3000", large)
	}
}

// TestBackgroundLoadCalibration: a poisson background with no rack map
// offers load × capacity × horizon bytes, over valid pairs, in arrival
// order.
func TestBackgroundLoadCalibration(t *testing.T) {
	env := Env{
		Hosts:          192,
		UplinkCapacity: 64 * 40 * units.Gbps,
		Load:           0.5,
		Duration:       100 * sim.Millisecond,
	}
	flows, err := LegacyPlan(WebSearch, 0).Generate(env, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) == 0 {
		t.Fatal("no flows generated")
	}
	var vol float64
	for _, f := range flows {
		vol += float64(f.Size)
		if f.Src == f.Dst || f.Src < 0 || f.Src >= 192 || f.Dst < 0 || f.Dst >= 192 {
			t.Fatalf("bad pair %d->%d", f.Src, f.Dst)
		}
	}
	// Offered bytes over duration ≈ load × capacity (no rack correction
	// here since RackOf is nil).
	want := 0.5 * float64(64*40*units.Gbps) / 8 * 0.1
	if vol < want*0.8 || vol > want*1.2 {
		t.Fatalf("offered volume %.3g, want ≈%.3g", vol, want)
	}
	for i := 1; i < len(flows); i++ {
		if flows[i].At < flows[i-1].At {
			t.Fatal("arrivals not sorted")
		}
	}
}

func TestCrossProbCorrection(t *testing.T) {
	rackOf := make([]int, 12) // 2 racks of 6
	for i := range rackOf {
		rackOf[i] = i / 6
	}
	got := crossProb(12, rackOf)
	// P(same rack) = (5/11) → cross ≈ 0.545.
	if got < 0.52 || got > 0.57 {
		t.Fatalf("crossProb = %.3f, want ~0.545", got)
	}
	// Correction raises the arrival rate.
	s := Source{Kind: SrcPoisson, cdf: WebSearch}
	base := Env{Hosts: 12, UplinkCapacity: 80 * units.Gbps, Load: 0.5, Duration: sim.Millisecond}
	withRacks := base
	withRacks.RackOf = rackOf
	if s.rate(withRacks, 1) <= s.rate(base, 1) {
		t.Fatal("rack correction should increase the arrival rate")
	}
}

// TestIncastGeneration: every event of an explicit-rate incast has one
// receiver and (hosts−1) × flows_per_sender flows of flow_size bytes.
func TestIncastGeneration(t *testing.T) {
	p, err := ParsePlan([]byte(`{"sources":[{"kind":"incast","rate":1000,"flow_size":8000}]}`))
	if err != nil {
		t.Fatal(err)
	}
	env := Env{Hosts: 10, UplinkCapacity: 80 * units.Gbps, Load: 0.5, Duration: 10 * sim.Millisecond}
	flows := mustGenerate(t, p, env, 5)
	if len(flows) == 0 {
		t.Fatal("no incast flows")
	}
	for len(flows) > 0 {
		n := 1
		for n < len(flows) && flows[n].At == flows[0].At {
			n++
		}
		if n != 9*4 {
			t.Fatalf("event at %v has %d flows, want 36", flows[0].At, n)
		}
		for _, f := range flows[:n] {
			if f.Dst != flows[0].Dst {
				t.Fatal("incast event has mixed receivers")
			}
			if f.Size != 8000 || !f.Incast || f.Src == f.Dst {
				t.Fatalf("incast flow misconfigured: %+v", f)
			}
		}
		flows = flows[n:]
	}
}

// TestEventRateFor: a 10 % incast over a 9 GB/s nominal background
// (10 hosts, 4 flows per sender of 8 kB) carries fg = bg/9 = 1 GB/s.
func TestEventRateFor(t *testing.T) {
	env := Env{Hosts: 10, UplinkCapacity: 144 * units.Gbps, Load: 0.5, Duration: sim.Millisecond}
	s := Source{Kind: SrcIncast, Fraction: 0.1, FlowSize: 8000}
	perEvent := 9.0 * 4 * 8000
	wantFg := 1e9
	if got := s.rate(env, 1) * perEvent; got < wantFg*0.99 || got > wantFg*1.01 {
		t.Fatalf("fg volume %.3g, want 1e9", got)
	}
}

func TestDeployRacks(t *testing.T) {
	for _, c := range []struct {
		ratio float64
		want  int
	}{{0, 0}, {1, 32}, {0.5, 16}, {0.25, 8}, {0.01, 1}, {1.5, 32}} {
		if got := DeployRacks(32, c.ratio); got != c.want {
			t.Errorf("%g deployment of 32 racks enables %d, want %d", c.ratio, got, c.want)
		}
	}
}

func TestMergeSorts(t *testing.T) {
	a := []FlowSpec{{At: 3}, {At: 5}}
	b := []FlowSpec{{At: 1}, {At: 4}}
	m := Merge(a, b)
	for i := 1; i < len(m); i++ {
		if m[i].At < m[i-1].At {
			t.Fatal("merge not sorted")
		}
	}
	if len(m) != 4 {
		t.Fatalf("merged %d, want 4", len(m))
	}
}

// TestMergeMatchesStableSort: Merge returns what a stable sort of the
// concatenated lists returns, for zero to four lists, sorted and
// unsorted, empty ones among them and ties within and across lists, and
// leaves its inputs as they were. Src and Dst record where a flow came
// from, so a tie broken the other way shows.
func TestMergeMatchesStableSort(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		lists := make([][]FlowSpec, r.Intn(5))
		var concat []FlowSpec
		for i := range lists {
			n := r.Intn(4) * r.Intn(8) // empty lists are common
			for j := 0; j < n; j++ {
				lists[i] = append(lists[i], FlowSpec{At: sim.Time(r.Intn(12)), Src: i, Dst: j})
			}
			if r.Intn(3) > 0 {
				slices.SortStableFunc(lists[i], func(a, b FlowSpec) int { return int(a.At - b.At) })
			}
			concat = append(concat, lists[i]...)
		}
		before := make([][]FlowSpec, len(lists))
		for i, l := range lists {
			before[i] = slices.Clone(l)
		}
		sort.SliceStable(concat, func(i, j int) bool { return concat[i].At < concat[j].At })
		if got := Merge(lists...); !reflect.DeepEqual(got, concat) {
			t.Fatalf("trial %d: Merge(%v) = %v, stable sort %v", trial, before, got, concat)
		}
		if !reflect.DeepEqual(lists, before) {
			t.Fatalf("trial %d: Merge changed its inputs: %v, was %v", trial, lists, before)
		}
	}
}
