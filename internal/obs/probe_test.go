package obs

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"testing"

	"flexpass/internal/sim"
)

// refSeries is the naive form of a probe series, the reference the
// prober is checked against: every sample appended to a []int64, the
// oldest dropped from the front at the cap.
type refSeries struct {
	kind           SampleKind
	values         []int64
	start, dropped int64
	last           int64 // previous reading of a cumulative source
}

func (r *refSeries) add(reading int64, capacity int, interval sim.Time) {
	v := reading
	if r.kind == Cumulative {
		v, r.last = reading-r.last, reading
	}
	r.values = append(r.values, v)
	if len(r.values) > capacity {
		r.values = r.values[1:]
		r.dropped++
		r.start += int64(interval)
	}
}

// TestProberMatchesReference drives random sources — cumulative and
// instant; constant, quiet, bursty and changing on every tick; a third
// of them registered mid-run — through a prober and through the naive
// reference, with caps of one sample, four, a few blocks' worth and the
// default, over runs shorter and longer than the cap.
func TestProberMatchesReference(t *testing.T) {
	const interval = 10 * sim.Microsecond
	defaultCap := (*Options)(nil).Cap()
	for _, tc := range []struct{ capacity, ticks int }{
		{1, 1}, {1, 90}, {4, 3}, {4, 300}, {2*blockRuns + 1, 200}, {5*blockRuns + 3, 400},
		{defaultCap, 500}, {defaultCap, defaultCap + 700},
	} {
		rng := rand.New(rand.NewSource(int64(tc.capacity*7919 + tc.ticks)))
		eng := sim.NewEngine(1)
		reg := NewRegistry()
		p := NewProber(eng, reg, &Options{ProbeInterval: interval, SeriesCap: tc.capacity})
		p.Start()
		refs := map[string]*refSeries{}
		for j := 0; j < 24; j++ {
			kind := SampleKind(j % 2)
			change := []float64{0, 0.01, 0.3, 1}[j/2%4]
			// readings[k] is what the source reads at tick k.
			readings := make([]int64, tc.ticks+1)
			v := rng.Int63n(3)
			for k := 1; k <= tc.ticks; k++ {
				switch {
				case rng.Float64() >= change:
				case kind == Cumulative:
					v += rng.Int63n(3) * 1460
				case rng.Intn(4) == 0:
					v = rng.Int63() - math.MaxInt64/2
				default:
					v = rng.Int63n(5) - 2
				}
				readings[k] = v
			}
			from := 1 // the first tick that reads the source
			if j%3 == 2 {
				from = 1 + rng.Intn(tc.ticks)
			}
			name := "src" + strconv.Itoa(j)
			read := func() int64 { return readings[eng.Now()/interval] }
			eng.At(sim.Time(from)*interval-interval/2, func() {
				if kind == Cumulative {
					reg.CounterFunc(name, "m", read)
				} else {
					reg.Gauge(name, "m", read)
				}
			})
			ref := &refSeries{kind: kind, start: int64(sim.Time(from) * interval)}
			for k := from; k <= tc.ticks; k++ {
				ref.add(readings[k], tc.capacity, interval)
			}
			refs[name] = ref
		}
		eng.Run(sim.Time(tc.ticks) * interval)

		if p.Ticks() != int64(tc.ticks) || len(p.Series()) != len(refs) {
			t.Fatalf("cap %d, %d ticks: %d ticks, %d series", tc.capacity, tc.ticks, p.Ticks(), len(p.Series()))
		}
		for _, s := range p.Series() {
			ref := refs[s.Entity]
			if s.Kind != ref.kind.String() || s.IntervalPs != int64(interval) {
				t.Fatalf("cap %d, %d ticks, %s: kind %s interval %d", tc.capacity, tc.ticks, s.Entity, s.Kind, s.IntervalPs)
			}
			if got := s.Values.Slice(); s.Values.Len() != len(ref.values) || !reflect.DeepEqual(got, ref.values) {
				t.Fatalf("cap %d, %d ticks, %s: %d samples %v, want %d %v",
					tc.capacity, tc.ticks, s.Entity, s.Values.Len(), got, len(ref.values), ref.values)
			}
			var each []int64
			s.Values.Each(func(k int, v int64) {
				if k != len(each) {
					t.Fatalf("cap %d, %s: Each index %d, want %d", tc.capacity, s.Entity, k, len(each))
				}
				each = append(each, v)
			})
			if !reflect.DeepEqual(each, ref.values) {
				t.Fatalf("cap %d, %s: Each saw %v, want %v", tc.capacity, s.Entity, each, ref.values)
			}
			if s.StartPs != ref.start || s.Dropped != ref.dropped {
				t.Fatalf("cap %d, %d ticks, %s: start %d dropped %d, want start %d dropped %d",
					tc.capacity, tc.ticks, s.Entity, s.StartPs, s.Dropped, ref.start, ref.dropped)
			}
			runs := s.Values.runs
			for k := 1; k < len(runs); k++ {
				if runs[k].v == runs[k-1].v {
					t.Fatalf("cap %d, %s: adjacent runs share value %d", tc.capacity, s.Entity, runs[k].v)
				}
			}
			// An exact-length slice: appending to it cannot write into
			// the next series' runs.
			if cap(runs) != len(runs) {
				t.Fatalf("cap %d, %s: %d runs in a slice of capacity %d", tc.capacity, s.Entity, len(runs), cap(runs))
			}
		}
	}
}

// TestProberHoldsItsCap: a capped series that changes on every tick holds,
// at every tick, at most its capacity's runs and one block, and takes the
// blocks it gave up back instead of carving new ones.
func TestProberHoldsItsCap(t *testing.T) {
	for _, capacity := range []int{1, 4, blockRuns, 100} {
		eng := sim.NewEngine(1)
		reg := NewRegistry()
		reg.Gauge("busy", "v", func() int64 { return int64(eng.Now()) })
		p := NewProber(eng, reg, &Options{ProbeInterval: sim.Microsecond, SeriesCap: capacity})
		p.Start()
		blocks := (capacity+blockRuns-1)/blockRuns + 1
		for k := 1; k <= 2000; k++ {
			eng.Run(sim.Time(k) * sim.Microsecond)
			if held := int(p.chains[0].runs) + 1; held > capacity+blockRuns {
				t.Fatalf("cap %d, tick %d: %d runs held, want at most %d", capacity, k, held, capacity+blockRuns)
			}
			carved := 0
			for _, c := range p.chunks {
				carved += len(c)
			}
			if carved > blocks {
				t.Fatalf("cap %d, tick %d: %d blocks carved, want at most %d", capacity, k, carved, blocks)
			}
		}
		if s := p.Series()[0]; s.Values.Len() != capacity || s.Dropped != int64(2000-capacity) {
			t.Fatalf("cap %d: %d samples, %d dropped", capacity, s.Values.Len(), s.Dropped)
		}
	}
}

// TestProberAllocsPerChange pins what a value change costs the heap: 2 000
// sources over 600 ticks, a tenth of them changing on every tick, ticks
// and Series together. A change writes its closed run into a block, and
// blocks are carved from chunks of up to 64, so the run allocates 496
// objects, 0.00414 per change (0.00423 under -race); when every series
// grew a run array of its own by doubling, 0.0168 [in brackets].
func TestProberAllocsPerChange(t *testing.T) {
	const budget = 0.0054 // measured 0.00414 [0.0168]
	eng := sim.NewEngine(1)
	reg := NewRegistry()
	zeros := make([]int64, 2000)
	for j := range zeros {
		name := "src" + strconv.Itoa(j)
		if j%10 == 0 {
			reg.Gauge(name, "v", func() int64 { return int64(eng.Now()) })
		} else {
			reg.GaugeAt(name, "v", &zeros[j])
		}
	}
	p := NewProber(eng, reg, nil)
	p.Start()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	eng.Run(600 * p.Interval())
	series := p.Series()
	runtime.ReadMemStats(&after)
	changes := 0
	for _, s := range series {
		changes += s.Values.Runs() - 1
	}
	got := float64(after.Mallocs-before.Mallocs) / float64(changes)
	t.Logf("%d heap objects for %d value changes: %.5f per change", after.Mallocs-before.Mallocs, changes, got)
	if got > budget {
		t.Fatalf("%.5f heap objects per value change, budget %.5f", got, budget)
	}
}
