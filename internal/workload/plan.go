package workload

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"flexpass/internal/planspec"
	"flexpass/internal/sim"
	"flexpass/internal/units"
)

// This file is the composable workload plan layer: a Plan is an ordered
// list of traffic Sources — each a calibrated generator component with
// optional rate Modulators — composed into one deterministic flow list.
// Plans are data in the mold of fault plans (internal/faults): strict
// JSON, validated up front, content-hashed for scenario identity, and
// replay-exact — same (plan, seed, env) ⇒ byte-identical flows, because
// every source draws from one shared seeded stream in declaration
// order.

// SourceKind names a traffic source component.
type SourceKind string

// Source kinds.
const (
	// SrcPoisson is the paper's §6.2 background: Poisson flow arrivals
	// between random host pairs, sizes from a named CDF, arrival rate
	// calibrated to a core-load target.
	SrcPoisson SourceKind = "poisson"
	// SrcOnOff is bursty background: exponential ON/OFF envelope with
	// Poisson arrivals during ON periods only, same long-run load.
	SrcOnOff SourceKind = "onoff"
	// SrcLognormal is background with heavy-tailed lognormal
	// inter-arrivals (burstier than Poisson at equal average rate).
	SrcLognormal SourceKind = "lognormal"
	// SrcIncast is the §6.2 foreground: Poisson events where every host
	// sends FlowsPerSender fixed-size flows to one random receiver.
	SrcIncast SourceKind = "incast"
	// SrcRPC is fan-out/fan-in coflows: Poisson jobs, each fanning
	// requests from a random root to Fanout workers and collecting
	// responses, all flows sharing a coflow ID.
	SrcRPC SourceKind = "rpc"
	// SrcTrace replays a CSV flow trace file as ReadTrace reads it.
	SrcTrace SourceKind = "trace"
)

var knownSourceKinds = map[SourceKind]bool{
	SrcPoisson: true, SrcOnOff: true, SrcLognormal: true,
	SrcIncast: true, SrcRPC: true, SrcTrace: true,
}

// Source is one traffic component of a plan. Kind-specific fields:
//
//   - poisson / onoff / lognormal: CDF (size distribution name) and
//     Load (core-load target; 0 inherits the scenario load). onoff adds
//     On/Off mean period durations; lognormal adds Sigma (shape of the
//     log inter-arrival, 0 degenerates to fixed spacing).
//   - incast: FlowSize, plus either Fraction (volume fraction of total
//     traffic, referenced to the scenario's nominal background load —
//     the legacy -incast semantics) or an explicit event Rate.
//     FlowsPerSender defaults to 4. Coflow tags each event as a coflow
//     so completion is tracked as a unit.
//   - rpc: Fanout, RequestSize, ResponseSize or ResponseCDF, and either
//     an explicit job Rate or Load (capacity fraction the RPC traffic
//     should occupy).
//   - trace: Path to a CSV flow trace (relative paths resolve against
//     the plan file's directory).
type Source struct {
	Kind SourceKind `json:"kind"`
	// Tenant labels the load class; it is stamped on every generated
	// flow and drives per-tenant accounting in the harness and lake.
	Tenant string `json:"tenant,omitempty"`

	CDF  string  `json:"cdf,omitempty"`
	Load float64 `json:"load,omitempty"`
	// Rate is kind-dependent: flow arrivals/sec (backgrounds), incast
	// events/sec, or RPC jobs/sec. Overrides Load / Fraction.
	Rate float64 `json:"rate,omitempty"`

	// Incast fields.
	Fraction       float64 `json:"fraction,omitempty"`
	FlowSize       int64   `json:"flow_size,omitempty"`
	FlowsPerSender int     `json:"flows_per_sender,omitempty"`
	Coflow         bool    `json:"coflow,omitempty"`

	// ON/OFF fields.
	On  planspec.TimeSpec `json:"on,omitempty"`
	Off planspec.TimeSpec `json:"off,omitempty"`

	// Lognormal shape.
	Sigma float64 `json:"sigma,omitempty"`

	// RPC fields.
	Fanout       int    `json:"fanout,omitempty"`
	RequestSize  int64  `json:"request_size,omitempty"`
	ResponseSize int64  `json:"response_size,omitempty"`
	ResponseCDF  string `json:"response_cdf,omitempty"`

	// Trace replay.
	Path string `json:"path,omitempty"`

	// Modulate shapes the source's rate over time; the effective rate is
	// the base rate times the product of the modulator envelopes.
	Modulate []Modulator `json:"modulate,omitempty"`

	// Resolved state (Validate / Resolve), not part of the wire form.
	cdf        *CDF       // resolved size distribution
	respCDF    *CDF       // resolved RPC response distribution
	traceFlows []FlowSpec // resolved trace replay flows
	traceSum   string     // sha256 hex of the trace file content
}

// Plan is an ordered list of traffic sources. The zero value is an
// empty plan (no flows).
type Plan struct {
	// Name labels the plan in reports and artifacts; it is excluded
	// from the content hash.
	Name    string   `json:"name,omitempty"`
	Sources []Source `json:"sources"`
}

// PlanError reports an invalid source in a plan: which source, which
// field, and why. Mirrors faults.PlanError so callers can errors.As
// against one class per plan family.
type PlanError struct {
	Index int    // position in Plan.Sources
	Field string // offending field name ("kind", "load", ...)
	Msg   string
}

func (e *PlanError) Error() string {
	return fmt.Sprintf("workload: source %d: field %s: %s", e.Index, e.Field, e.Msg)
}

// Env is the scenario context a plan is generated against: the topology
// shape, the aggregate uplink capacity load targets calibrate to, the
// nominal scenario load (inherited by sources that do not set their
// own), and the arrival horizon.
type Env struct {
	Hosts          int
	RackOf         []int
	UplinkCapacity units.Rate
	Load           float64
	Duration       sim.Time
}

// Validate checks every source for structural soundness — known kind,
// resolvable distribution names, sane rates, sizes and envelopes — and
// resolves the named CDFs. It does not touch the filesystem: trace
// paths are checked for presence only, and resolve later (Resolve /
// ParsePlanFile). Returns a *PlanError describing the first problem,
// or nil.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	if len(p.Sources) == 0 {
		return &PlanError{Index: -1, Field: "sources", Msg: "plan has no sources"}
	}
	for i := range p.Sources {
		s := &p.Sources[i]
		if !knownSourceKinds[s.Kind] {
			return &PlanError{Index: i, Field: "kind", Msg: fmt.Sprintf("unknown kind %q", s.Kind)}
		}
		if s.Load < 0 || s.Rate < 0 {
			return &PlanError{Index: i, Field: "load", Msg: "load and rate must be >= 0"}
		}
		switch s.Kind {
		case SrcPoisson, SrcOnOff, SrcLognormal:
			if s.cdf == nil {
				if s.CDF == "" {
					return &PlanError{Index: i, Field: "cdf", Msg: "background source needs a size distribution"}
				}
				if s.cdf = ByName(s.CDF); s.cdf == nil {
					return &PlanError{Index: i, Field: "cdf", Msg: fmt.Sprintf("unknown distribution %q", s.CDF)}
				}
			}
			if s.Rate > 0 {
				return &PlanError{Index: i, Field: "rate", Msg: "background sources calibrate by load, not rate"}
			}
			if s.Kind == SrcOnOff && (s.On <= 0 || s.Off <= 0) {
				return &PlanError{Index: i, Field: "on", Msg: "onoff needs positive mean on/off periods"}
			}
			if s.Kind == SrcLognormal && s.Sigma < 0 {
				return &PlanError{Index: i, Field: "sigma", Msg: "sigma must be >= 0"}
			}
		case SrcIncast:
			if s.FlowSize <= 0 {
				return &PlanError{Index: i, Field: "flow_size", Msg: "incast needs a positive flow size"}
			}
			if s.FlowsPerSender < 0 {
				return &PlanError{Index: i, Field: "flows_per_sender", Msg: "must be >= 0"}
			}
			if s.Rate == 0 && (s.Fraction <= 0 || s.Fraction >= 1) {
				return &PlanError{Index: i, Field: "fraction", Msg: "incast needs a rate or a volume fraction in (0,1)"}
			}
		case SrcRPC:
			if s.Fanout < 1 {
				return &PlanError{Index: i, Field: "fanout", Msg: "rpc needs fanout >= 1"}
			}
			if s.RequestSize <= 0 {
				return &PlanError{Index: i, Field: "request_size", Msg: "rpc needs a positive request size"}
			}
			if s.ResponseCDF != "" {
				if s.respCDF = ByName(s.ResponseCDF); s.respCDF == nil {
					return &PlanError{Index: i, Field: "response_cdf", Msg: fmt.Sprintf("unknown distribution %q", s.ResponseCDF)}
				}
			} else if s.ResponseSize <= 0 {
				return &PlanError{Index: i, Field: "response_size", Msg: "rpc needs a response size or distribution"}
			}
			if s.Rate == 0 && s.Load == 0 {
				return &PlanError{Index: i, Field: "rate", Msg: "rpc needs a job rate or a load target"}
			}
		case SrcTrace:
			if s.Path == "" {
				return &PlanError{Index: i, Field: "path", Msg: "trace source needs a path"}
			}
			if len(s.Modulate) > 0 {
				return &PlanError{Index: i, Field: "modulate", Msg: "trace sources replay verbatim and cannot be modulated"}
			}
		}
		for j, m := range s.Modulate {
			if err := validateModulator(m); err != "" {
				return &PlanError{Index: i, Field: fmt.Sprintf("modulate[%d]", j), Msg: err}
			}
		}
	}
	return nil
}

func validateModulator(m Modulator) string {
	switch m.Kind {
	case ModRamp:
		if m.From < 0 || m.To < 0 || (m.From == 0 && m.To == 0) {
			return "ramp needs nonnegative from/to, not both zero"
		}
	case ModFlash:
		if m.Peak < 1 {
			return "flash needs peak >= 1"
		}
		if m.End <= m.At {
			return "flash needs end after at"
		}
		if m.Ramp < 0 || 2*m.Ramp.Time() > m.End.Time()-m.At.Time() {
			return "flash ramp must fit inside the [at,end) window"
		}
	case ModDiurnal:
		if m.Period <= 0 {
			return "diurnal needs a positive period"
		}
		if m.Min < 0 || m.Min > 1 {
			return "diurnal min must be in [0,1]"
		}
	default:
		return fmt.Sprintf("unknown modulator kind %q", m.Kind)
	}
	return ""
}

// hashSource is the canonical hash payload of one source: the wire
// fields, with a trace's path replaced by its content digest so the
// identity survives file moves and renames.
type hashSource struct {
	Source
	Path string `json:"path,omitempty"`
}

// Hash returns a short, stable content hash of the plan's sources —
// the identity the result lake keys plan-driven runs on. The plan Name
// is deliberately excluded (renaming a plan must not change the
// scenario identity), and trace sources hash by file content once
// resolved, so moving a trace file does not change the hash either. A
// nil or empty plan hashes to "".
func (p *Plan) Hash() string {
	if p == nil || len(p.Sources) == 0 {
		return ""
	}
	hs := make([]hashSource, len(p.Sources))
	for i, s := range p.Sources {
		hs[i] = hashSource{Source: s, Path: s.Path}
		if s.traceSum != "" {
			hs[i].Path = "sha256:" + s.traceSum
		}
	}
	b, err := json.Marshal(hs)
	if err != nil {
		// Sources hold only plain values; marshal cannot fail in practice.
		panic(fmt.Sprintf("workload: hashing plan: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// ParsePlan decodes and validates a JSON plan. Unknown fields are
// rejected so typos in plan files fail loudly instead of silently
// generating the wrong traffic. ParsePlan never touches the
// filesystem; trace sources resolve in Resolve or ParsePlanFile.
func ParsePlan(data []byte) (*Plan, error) {
	var p Plan
	if err := planspec.DecodeStrict(data, &p); err != nil {
		return nil, fmt.Errorf("workload: bad plan JSON: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// Resolve loads every trace source's file (relative paths against
// baseDir) and records its flows and content digest. Idempotent.
func (p *Plan) Resolve(baseDir string) error {
	for i := range p.Sources {
		s := &p.Sources[i]
		if s.Kind != SrcTrace || s.traceSum != "" {
			continue
		}
		path := s.Path
		if !filepath.IsAbs(path) {
			path = filepath.Join(baseDir, path)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("workload: trace source %d: %w", i, err)
		}
		flows, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return fmt.Errorf("workload: trace source %d (%s): %w", i, s.Path, err)
		}
		sum := sha256.Sum256(data)
		s.traceFlows = flows
		s.traceSum = hex.EncodeToString(sum[:])
	}
	return nil
}

// ParsePlanFile reads, parses, validates, and resolves a plan file.
// Trace paths inside the plan resolve relative to the plan file's
// directory.
func ParsePlanFile(path string) (*Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	p, err := ParsePlan(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if p.Name == "" {
		p.Name = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	}
	if err := p.Resolve(filepath.Dir(path)); err != nil {
		return nil, err
	}
	return p, nil
}

// LegacyPlan is the builtin plan equivalent of the pre-plan parameter
// workload (Scenario.Workload + IncastFraction): one Poisson background
// source at the scenario load plus, when fraction > 0, one incast
// source at the legacy volume fraction. Generating it against the same
// seed consumes the RNG stream identically to the old direct-parameter
// path, so golden flow digests are preserved bit for bit.
func LegacyPlan(cdf *CDF, incastFraction float64, incastFlowSize int64) *Plan {
	p := &Plan{
		Name:    "builtin:" + cdf.Name,
		Sources: []Source{{Kind: SrcPoisson, CDF: cdf.Name, cdf: cdf}},
	}
	if incastFraction > 0 {
		p.Sources = append(p.Sources, Source{
			Kind:     SrcIncast,
			Fraction: incastFraction,
			FlowSize: incastFlowSize,
		})
	}
	return p
}

// Generate produces the plan's merged, time-sorted flow list for the
// given environment. Sources generate sequentially against the one
// shared stream r, in declaration order, so the output is a pure
// function of (plan, env, seed). Modulated sources generate at base ×
// max(envelope) and then thin — every acceptance draw happens after
// that source's generation draws, keeping unmodulated prefixes of the
// stream stable. Coflow IDs are assigned from one counter across all
// sources.
func (p *Plan) Generate(env Env, r *rand.Rand) ([]FlowSpec, error) {
	if p == nil || len(p.Sources) == 0 {
		return nil, nil
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	nextCoflow := uint64(1)
	lists := make([][]FlowSpec, 0, len(p.Sources))
	for i := range p.Sources {
		s := &p.Sources[i]
		flows, err := s.generate(env, r, &nextCoflow)
		if err != nil {
			return nil, fmt.Errorf("workload: source %d (%s): %w", i, s.Kind, err)
		}
		if s.Tenant != "" {
			for j := range flows {
				flows[j].Tenant = s.Tenant
			}
		}
		lists = append(lists, flows)
	}
	// One sorted source is the merged list already, and Generate owns it.
	if len(lists) == 1 && len(lists[0]) > 0 && sortedByAt(lists[0]) {
		return lists[0], nil
	}
	return Merge(lists...), nil
}

// generate produces one source's flow list (already thinned).
func (s *Source) generate(env Env, r *rand.Rand, nextCoflow *uint64) ([]FlowSpec, error) {
	ev := envelope{mods: s.Modulate, horizon: env.Duration}
	boost := ev.max()
	load := s.Load
	if load == 0 {
		load = env.Load
	}
	var flows []FlowSpec
	grouped := false
	switch s.Kind {
	case SrcPoisson:
		flows = BackgroundParams{
			CDF: s.cdf, Hosts: env.Hosts, RackOf: env.RackOf,
			UplinkCapacity: env.UplinkCapacity,
			Load:           load * boost,
			Duration:       env.Duration,
		}.Generate(r)
	case SrcOnOff:
		flows = OnOffParams{
			CDF: s.cdf, Hosts: env.Hosts, RackOf: env.RackOf,
			UplinkCapacity: env.UplinkCapacity,
			Load:           load * boost,
			MeanOn:         s.On.Time(), MeanOff: s.Off.Time(),
			Duration: env.Duration,
		}.Generate(r)
	case SrcLognormal:
		flows = LognormalParams{
			CDF: s.cdf, Hosts: env.Hosts, RackOf: env.RackOf,
			UplinkCapacity: env.UplinkCapacity,
			Load:           load * boost,
			Sigma:          s.Sigma,
			Duration:       env.Duration,
		}.Generate(r)
	case SrcIncast:
		fps := s.FlowsPerSender
		if fps == 0 {
			fps = 4
		}
		rate := s.Rate
		if rate == 0 {
			// Legacy semantics: the fraction references the scenario's
			// nominal background volume (env.Load of the capacity), not
			// whatever other sources this plan happens to compose.
			bgBytesPerSec := env.Load * float64(env.UplinkCapacity) / 8
			rate = EventRateFor(s.Fraction, bgBytesPerSec, env.Hosts, fps, s.FlowSize)
		}
		flows = IncastParams{
			Hosts: env.Hosts, FlowsPerSender: fps, FlowSize: s.FlowSize,
			EventRate: rate * boost, Duration: env.Duration,
		}.Generate(r)
		if s.Coflow {
			tagIncastCoflows(flows, nextCoflow)
		}
		grouped = true
	case SrcRPC:
		if s.Fanout > env.Hosts-1 {
			return nil, fmt.Errorf("fanout %d exceeds hosts-1 (%d)", s.Fanout, env.Hosts-1)
		}
		rp := RPCParams{
			Hosts: env.Hosts, Fanout: s.Fanout,
			RequestSize: s.RequestSize, ResponseSize: s.ResponseSize,
			ResponseCDF: s.respCDF, Duration: env.Duration,
		}
		rp.Rate = s.Rate
		if rp.Rate == 0 {
			rp.Rate = rp.RateForLoad(load, env.UplinkCapacity)
		}
		rp.Rate *= boost
		flows = rp.Generate(r, nextCoflow)
		grouped = true
	case SrcTrace:
		if s.traceFlows == nil {
			return nil, errors.New("unresolved trace source (plan not loaded via ParsePlanFile/Resolve)")
		}
		// Replayed verbatim: no RNG draws, no thinning.
		return append([]FlowSpec(nil), s.traceFlows...), nil
	}
	return thin(flows, ev, r, grouped), nil
}

// tagIncastCoflows groups an incast source's flows into coflows: all
// flows of one event share an arrival instant (distinct events land at
// distinct Poisson times), so runs of equal At form the groups.
func tagIncastCoflows(flows []FlowSpec, nextCoflow *uint64) {
	var cur uint64
	for i := range flows {
		if i == 0 || flows[i].At != flows[i-1].At {
			cur = *nextCoflow
			*nextCoflow++
		}
		flows[i].Coflow = cur
	}
}

// thin applies the modulation envelope by rejection: each arrival unit
// survives with probability scale(t)/max(envelope). With grouped set,
// flows sharing (At, Coflow) — one incast event or one RPC job — are
// kept or dropped as a unit so coflows never lose members. Acceptance
// draws consume r strictly after the source's generation draws.
func thin(flows []FlowSpec, ev envelope, r *rand.Rand, grouped bool) []FlowSpec {
	if len(ev.mods) == 0 || len(flows) == 0 {
		return flows
	}
	max := ev.max()
	out := make([]FlowSpec, 0, len(flows))
	keep := false
	for i, f := range flows {
		if !grouped || i == 0 || f.At != flows[i-1].At || f.Coflow != flows[i-1].Coflow {
			keep = r.Float64()*max < ev.scale(f.At)
		}
		if keep {
			out = append(out, f)
		}
	}
	return out
}
