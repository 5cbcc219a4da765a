package chaos

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"path"
	"sort"
	"sync"

	"flexpass/internal/farm"
	"flexpass/internal/faults"
	"flexpass/internal/harness"
	"flexpass/internal/netem"
	"flexpass/internal/sim"
	"flexpass/internal/workload"
)

// Coords pins one trial's scenario coordinates. They are everything a
// replay needs besides the fault plan and (for shrinking) the flow
// list: the workload RNG is a pure function of Seed, so the same
// coordinates regenerate the same arrival trace.
type Coords struct {
	Scheme     string  `json:"scheme"`
	Topo       string  `json:"topology"`
	Shards     int     `json:"shards,omitempty"`
	Workload   string  `json:"workload"`
	Load       float64 `json:"load"`
	Deployment float64 `json:"deployment"`
	Seed       int64   `json:"seed"`
	DurationMS float64 `json:"duration_ms"`
	DrainMS    float64 `json:"drain_ms"`
}

// Trial is one sampled chaos point: scenario coordinates plus the
// fault plan to inject.
type Trial struct {
	Index int `json:"trial"`
	Coords
	Plan *faults.Plan `json:"fault_plan,omitempty"`
}

// trialSeed derives the per-trial RNG seed from the spec seed with a
// splitmix64-style mix, so adjacent trials draw unrelated streams and
// the mapping is stable across runs and platforms.
func trialSeed(seed int64, trial int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(trial+1)*0xBF58476D1CE4E5B9
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z & 0x7FFFFFFFFFFFFFFF)
}

// portPools caches the resolved port-name pool per topology label: the
// sampler builds each fabric once to enumerate concrete port names, so
// every sampled event names a port that exists and plan application
// can never hit UnknownLinkError.
var portPools sync.Map // string -> []string

func portPool(label string) ([]string, error) {
	if v, ok := portPools.Load(label); ok {
		return v.([]string), nil
	}
	layout, ok := farm.Topologies[label]
	if !ok {
		return nil, fmt.Errorf("chaos: unknown topology %q", label)
	}
	// Port names depend only on the fabric's shape: the fabric of a
	// session with no flows is enough.
	sc := harness.BaseFor(layout)
	sc.TraceFlows = []workload.FlowSpec{}
	var names []string
	harness.Open(sc).Fabric().Net.EachPort(func(p *netem.Port) { names = append(names, p.Name()) })
	sort.Strings(names)
	portPools.Store(label, names)
	return names, nil
}

// filterPool keeps the pool entries matching any of the globs.
func filterPool(pool, globs []string) []string {
	var out []string
	for _, name := range pool {
		for _, g := range globs {
			if ok, _ := path.Match(g, name); ok {
				out = append(out, name)
				break
			}
		}
	}
	return out
}

func (s *Spec) windowPS() (int64, int64) {
	start := int64(s.Faults.WindowStartMS * float64(sim.Millisecond))
	end := int64(s.Faults.WindowEndMS * float64(sim.Millisecond))
	if end == 0 {
		end = int64(s.durationMS() * float64(sim.Millisecond))
	}
	return start, end
}

// Generate samples the spec's trials. The same (spec, seed) always
// yields the same trial list — every draw comes from a per-trial
// deterministic stream and the port pools are sorted.
func Generate(s *Spec) ([]Trial, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	trials := make([]Trial, 0, s.Trials)
	for i := 0; i < s.Trials; i++ {
		t, err := genTrial(s, i)
		if err != nil {
			return nil, err
		}
		trials = append(trials, t)
	}
	return trials, nil
}

func genTrial(s *Spec, i int) (Trial, error) {
	rng := rand.New(rand.NewSource(trialSeed(s.Seed, i)))
	pick := func(axis []string) string { return axis[rng.Intn(len(axis))] }
	span := func(lo, hi float64) float64 {
		if hi <= lo {
			return lo
		}
		return lo + (hi-lo)*rng.Float64()
	}
	shardAxis := s.shards()
	lo, hi := s.loadRange()
	dlo, dhi := s.deployRange()
	t := Trial{
		Index: i,
		Coords: Coords{
			Scheme:     pick(s.schemes()),
			Topo:       pick(s.topos()),
			Shards:     shardAxis[rng.Intn(len(shardAxis))],
			Workload:   pick(s.workloads()),
			Load:       span(lo, hi),
			Deployment: span(dlo, dhi),
			Seed:       1 + rng.Int63n(1<<31),
			DurationMS: s.durationMS(),
			DrainMS:    s.drainMS(),
		},
	}
	pool, err := portPool(t.Topo)
	if err != nil {
		return Trial{}, err
	}
	pool = filterPool(pool, s.Faults.links())
	if len(pool) == 0 {
		return Trial{}, fmt.Errorf("chaos: faults.links %v match no port of topology %q", s.Faults.links(), t.Topo)
	}
	plan, err := samplePlan(s, rng, pool, i)
	if err != nil {
		return Trial{}, err
	}
	t.Plan = plan
	return t, nil
}

// samplePlan draws a valid fault timeline: up to max_events interval
// faults with concrete port names, non-overlapping per (link, kind),
// every window closing inside the spec's fault window so the fabric
// heals before the drain. Rejected draws (overlaps) are resampled a
// bounded number of times; an unlucky draw simply yields fewer events.
func samplePlan(s *Spec, rng *rand.Rand, pool []string, trial int) (*faults.Plan, error) {
	kinds := s.Faults.kinds()
	winLo, winHi := s.windowPS()
	n := 1 + rng.Intn(s.Faults.maxEvents())
	type slot struct{ at, end int64 }
	taken := map[string][]slot{} // "link|kind" -> reserved windows
	var events []faults.Event
	for i := 0; i < n; i++ {
		for try := 0; try < 16; try++ {
			kind := kinds[rng.Intn(len(kinds))]
			link := pool[rng.Intn(len(pool))]
			at := winLo + rng.Int63n(winHi-winLo)
			maxDur := winHi - at
			if maxDur < 1 {
				continue
			}
			end := at + 1 + rng.Int63n(maxDur)
			key := link + "|" + string(kind)
			conflict := false
			for _, sl := range taken[key] {
				if at < sl.end && sl.at < end {
					conflict = true
					break
				}
			}
			if conflict {
				continue
			}
			ev := faults.Event{
				Kind: kind,
				Link: link,
				At:   faults.TimeSpec(at),
				End:  faults.TimeSpec(end),
			}
			switch kind {
			case faults.RateDegrade:
				ev.Fraction = 0.05 + 0.9*rng.Float64()
			case faults.BurstLoss:
				ev.LossBad = 0.5 + 0.5*rng.Float64()
				ev.LossGood = 0.001 * rng.Float64()
				ev.BadLen = 1 + 31*rng.Float64()
				ev.GoodLen = 10 + 490*rng.Float64()
			case faults.CreditLoss:
				ev.Rate = 0.01 + 0.99*rng.Float64()
			}
			taken[key] = append(taken[key], slot{at, end})
			events = append(events, ev)
			break
		}
	}
	// Stable order: by onset, then link, then kind — cosmetic (the
	// applier sorts its own schedule) but keeps plan digests canonical.
	sort.SliceStable(events, func(a, b int) bool {
		if events[a].At != events[b].At {
			return events[a].At < events[b].At
		}
		if events[a].Link != events[b].Link {
			return events[a].Link < events[b].Link
		}
		return events[a].Kind < events[b].Kind
	})
	p := &faults.Plan{Name: fmt.Sprintf("chaos-%s-t%d", s.Name, trial), Events: events}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("chaos: sampled plan invalid (sampler bug): %w", err)
	}
	return p, nil
}

// Digest hashes a trial list to a short hex string. Pinning it in a
// test freezes the generator: any change to sampling order or defaults
// shows up as a digest diff, the same way the engine's golden digests
// pin the event loop.
func Digest(trials []Trial) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for i := range trials {
		if err := enc.Encode(&trials[i]); err != nil {
			panic(fmt.Sprintf("chaos: digest encode: %v", err))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}
