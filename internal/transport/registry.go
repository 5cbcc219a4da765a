package transport

import (
	"fmt"
	"sort"
	"sync"

	"flexpass/internal/obs"
	"flexpass/internal/sim"
	"flexpass/internal/topo"
	"flexpass/internal/trace"
	"flexpass/internal/units"
)

// SchemeEnv carries everything a scheme factory may need to compose a
// transport for one run: the engine, the fabric-wide knobs, and the
// observability planes. One env is shared by every scheme built for the
// same run, so counter sets are memoized per label (naive and oWF both
// bill to "expresspass"; the forensics credit audit sums over all sets).
type SchemeEnv struct {
	Eng *sim.Engine
	// LinkRate is the fabric line rate; credit/grant pacing derives its
	// ceiling from it.
	LinkRate units.Rate
	// WQ is w_q, the FlexPass queue weight (legacy-share knob).
	WQ float64
	// OracleWQ is the measured upgraded-traffic byte share, used by the
	// oWF scheme's queue weights and credit rate. Zero means unknown
	// (factories fall back to 0.5).
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

	mu       sync.Mutex
	counters map[string]Counters
	labels   []string
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
	if c, ok := e.counters[label]; ok {
		return c
	}
	c := NewCounters(e.Registry, label)
	if e.counters == nil {
		e.counters = make(map[string]Counters)
	}
	e.counters[label] = c
	e.labels = append(e.labels, label)
	return c
}

// EachCounters visits every counter set created through this env in
// creation order (the forensics credit-conservation audit sums issued and
// consumed credits across all of them).
func (e *SchemeEnv) EachCounters(f func(label string, c Counters)) {
	e.mu.Lock()
	labels := append([]string(nil), e.labels...)
	e.mu.Unlock()
	for _, l := range labels {
		e.mu.Lock()
		c := e.counters[l]
		e.mu.Unlock()
		f(l, c)
	}
}

// Scheme is one composed transport configuration, built by a registered
// factory for a single run: the queue profile the fabric must be built
// with, plus the two endpoint halves of a flow. The halves share nothing
// but the wire, so each may run on its own engine: the sender half on the
// instance whose env holds the source host's engine, registry and trace
// ring, the receiver half on the destination host's. Implementing both
// is what lets a scheme carry a flow across a shard cut.
type Scheme interface {
	// Profile returns the switch queue layout this scheme deploys.
	Profile() topo.PortProfile
	// StartSender labels fl (Transport, Legacy) and begins its send side.
	// It is the only half that writes the flow's send-side fields.
	StartSender(fl *Flow)
	// StartReceiver wires fl's receive side only.
	StartReceiver(fl *Flow)
}

// Start begins both halves of fl on one scheme instance, for callers whose
// two hosts share an engine. The receiver half goes first: the endpoint is
// registered before a frame addressed to it can exist.
func Start(s Scheme, fl *Flow) {
	s.StartReceiver(fl)
	s.StartSender(fl)
}

// SchemeFactory builds a scheme instance for one run.
type SchemeFactory func(env *SchemeEnv) Scheme

var schemeRegistry = struct {
	sync.Mutex
	factories map[string]SchemeFactory
}{factories: make(map[string]SchemeFactory)}

// RegisterScheme adds a scheme factory under name. Transports register
// themselves at wiring time (see internal/transport/schemes); registering
// the same name twice or an empty name panics — both are wiring bugs.
func RegisterScheme(name string, f SchemeFactory) {
	if name == "" || f == nil {
		panic("transport: RegisterScheme with empty name or nil factory")
	}
	schemeRegistry.Lock()
	defer schemeRegistry.Unlock()
	if _, dup := schemeRegistry.factories[name]; dup {
		panic(fmt.Sprintf("transport: scheme %q registered twice", name))
	}
	schemeRegistry.factories[name] = f
}

// NewScheme builds the named scheme for env. Unknown names return an
// error listing what is registered (mind blank-importing
// internal/transport/schemes to link the built-ins in).
func NewScheme(name string, env *SchemeEnv) (Scheme, error) {
	schemeRegistry.Lock()
	f, ok := schemeRegistry.factories[name]
	schemeRegistry.Unlock()
	if !ok {
		return nil, fmt.Errorf("transport: unknown scheme %q (registered: %v)", name, SchemeNames())
	}
	return f(env), nil
}

// SchemeNames lists every registered scheme name, sorted.
func SchemeNames() []string {
	schemeRegistry.Lock()
	defer schemeRegistry.Unlock()
	names := make([]string, 0, len(schemeRegistry.factories))
	for n := range schemeRegistry.factories {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
