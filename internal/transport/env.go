package transport

import (
	"sync"

	"flexpass/internal/obs"
	"flexpass/internal/topo"
	"flexpass/internal/trace"
	"flexpass/internal/units"
)

// SchemeEnv carries everything a scheme needs to compose a transport on
// one plane of a run (see internal/transport/schemes): the fabric-wide
// knobs and the plane's observability. One env is shared by
// every scheme built for the same plane, so counter sets are memoized per
// label (naive and oWF both bill to "expresspass"; the forensics credit
// audit sums over all sets).
type SchemeEnv struct {
	// LinkRate is the fabric line rate; credit/grant pacing derives its
	// ceiling from it.
	LinkRate units.Rate
	// WQ is w_q, the FlexPass queue weight (legacy-share knob).
	WQ float64
	// OracleWQ is the measured upgraded-traffic byte share, used by the
	// oWF scheme's queue weights and credit rate. Zero means unknown
	// (schemes fall back to 0.5).
	OracleWQ float64
	// Spec carries the queue-threshold overrides the run's port profiles
	// are built from (WQ already folded in by the caller).
	Spec topo.Spec

	// Registry is the run's stats registry (nil = telemetry off; counter
	// sets become zero values whose increments no-op). Trace is the
	// shared transport event ring (nil = no tracing).
	Registry *obs.Registry
	Trace    *trace.Ring

	// Options carries per-scheme parameters as data ("reactive",
	// "disable_proretx", ...). See the Opt* keys in names.go.
	Options map[string]string

	mu   sync.Mutex
	sets []counterSet // in creation order; only ever appended to
}

// counterSet is one label's memoized counters.
type counterSet struct {
	label string
	c     Counters
}

// Option returns the named scheme option, or "" when unset.
func (e *SchemeEnv) Option(key string) string { return e.Options[key] }

// BoolOption reports whether the named option is set to a truthy value.
func (e *SchemeEnv) BoolOption(key string) bool {
	switch e.Options[key] {
	case "", "0", "false", "no":
		return false
	}
	return true
}

// Counters returns the memoized counter set for a transport label,
// creating it in the registry on first use. With a nil Registry the set
// is the zero value and every increment no-ops.
func (e *SchemeEnv) Counters(label string) Counters {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range e.sets {
		if e.sets[i].label == label {
			return e.sets[i].c
		}
	}
	c := NewCounters(e.Registry, label)
	e.sets = append(e.sets, counterSet{label, c})
	return c
}

// EachCounters visits every counter set created through this env in
// creation order (the forensics credit-conservation audit sums issued and
// consumed credits across all of them). It visits the sets that existed
// when it was called: the list is only appended to, so what it read
// under the lock stays as it was, and f may create more.
func (e *SchemeEnv) EachCounters(f func(label string, c Counters)) {
	e.mu.Lock()
	sets := e.sets
	e.mu.Unlock()
	for i := range sets {
		f(sets[i].label, sets[i].c)
	}
}
