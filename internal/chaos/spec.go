// Package chaos is the randomized robustness-search plane: it samples
// valid random fault plans and scenario coordinates from a declarative
// spec, soaks them through the harness with the forensics auditors
// promoted to hard oracles, and delta-debugs any failing trial down to
// a minimal, replay-exact repro document.
//
// Everything is seeded: the same (spec, seed) pair generates the same
// trials, runs them to the same verdicts, and shrinks failures to the
// same repro — so a CI chaos job is as deterministic as a unit test,
// and a repro.json attached to a bug report replays bit-identically.
package chaos

import (
	"fmt"
	"os"
	"path"
	"time"

	"flexpass/internal/farm"
	"flexpass/internal/faults"
	"flexpass/internal/planspec"
)

// Spec declares a chaos search: how many trials to run, which scenario
// axes to sample from, how aggressive the sampled fault plans may be,
// and which oracle thresholds turn an observation into a failure.
// Parsing is strict (unknown fields are errors) for the same reason the
// farm and fault-plan specs are: a typoed knob silently reverting to
// its default is worse than a parse error.
type Spec struct {
	Name   string `json:"name"`
	Trials int    `json:"trials"`
	Seed   int64  `json:"seed"`

	// Scenario axes. Each trial picks one value per axis uniformly at
	// random; empty axes fall back to a single default.
	Schemes   []string `json:"schemes,omitempty"`    // default [flexpass]
	Topos     []string `json:"topologies,omitempty"` // farm labels; default [tiny]
	Shards    []int    `json:"shards,omitempty"`     // default [0] (single engine)
	Workloads []string `json:"workloads,omitempty"`  // CDF names; default [websearch]

	// Continuous axes, sampled uniformly from [min, max].
	LoadMin   float64 `json:"load_min,omitempty"`   // default 0.3
	LoadMax   float64 `json:"load_max,omitempty"`   // default 0.7
	DeployMin float64 `json:"deploy_min,omitempty"` // default 0.5
	DeployMax float64 `json:"deploy_max,omitempty"` // default 0.5

	DurationMS float64 `json:"duration_ms,omitempty"` // arrival window; default 2
	// DrainMS is the time past the arrival window, as in a sweep spec:
	// omitted, 5x duration; 0 is no drain.
	DrainMS *float64 `json:"drain_ms,omitempty"`

	// Per-trial watchdog limits (0 = off). These ride on the harness
	// deadline/stall watchdog, so a runaway trial is killed, recorded
	// as OutcomeKilled, and the soak moves on.
	DeadlineMS float64 `json:"deadline_ms,omitempty"`
	StallMS    float64 `json:"stall_ms,omitempty"`

	Faults  FaultSpec  `json:"faults"`
	Oracles OracleSpec `json:"oracles"`
}

// FaultSpec bounds the sampled fault plans.
type FaultSpec struct {
	MaxEvents int      `json:"max_events,omitempty"` // default 4
	Kinds     []string `json:"kinds,omitempty"`      // subset of the faults.Kind names; default all four
	Links     []string `json:"links,omitempty"`      // port-name globs the sampler may target; default ["*"]

	// Fault windows are sampled inside [window_start_ms, window_end_ms].
	// The default end is the arrival window (duration_ms), so every
	// sampled fault clears before the drain — a plan that leaves a link
	// down forever would make "all flows complete" unsatisfiable.
	WindowStartMS float64 `json:"window_start_ms,omitempty"`
	WindowEndMS   float64 `json:"window_end_ms,omitempty"`
}

// OracleSpec sets the failure thresholds. The forensics auditors
// (credit conservation, shared-buffer bounds, starvation) are always
// hard oracles on one-plane trials; these knobs tune the
// supplementary checks.
type OracleSpec struct {
	// StarveAfterMS overrides the starvation auditor's patience.
	StarveAfterMS float64 `json:"starve_after_ms,omitempty"`
	// MaxStrays fails a trial whose post-fault stray-packet count
	// exceeds the bound (a recovery leak). 0 = default 5000; -1
	// disables the check.
	MaxStrays int64 `json:"max_strays,omitempty"`
	// RequireCompletion fails a trial with incomplete flows (default
	// true: every sampled fault clears, so every flow must finish).
	RequireCompletion *bool `json:"require_completion,omitempty"`
}

// Defaults, exposed so the CLI can print them.
const (
	DefaultMaxEvents = 4
	DefaultMaxStrays = 5000
)

func (s *Spec) schemes() []string   { return orDefault(s.Schemes, "flexpass") }
func (s *Spec) topos() []string     { return orDefault(s.Topos, "tiny") }
func (s *Spec) workloads() []string { return orDefault(s.Workloads, "websearch") }
func (s *Spec) shards() []int       { return orDefault(s.Shards, 0) }
func (s *Spec) loadRange() (float64, float64) {
	lo, hi := s.LoadMin, s.LoadMax
	if lo == 0 && hi == 0 {
		return 0.3, 0.7
	}
	return lo, hi
}
func (s *Spec) deployRange() (float64, float64) {
	if s.DeployMin == 0 && s.DeployMax == 0 {
		return 0.5, 0.5
	}
	return s.DeployMin, s.DeployMax
}
func (s *Spec) durationMS() float64 {
	if s.DurationMS == 0 {
		return 2
	}
	return s.DurationMS
}
func (s *Spec) drainMS() float64 {
	if s.DrainMS == nil {
		return 5 * s.durationMS()
	}
	return *s.DrainMS
}
func (s *Spec) deadline() time.Duration {
	return time.Duration(s.DeadlineMS * float64(time.Millisecond))
}
func (s *Spec) stall() time.Duration {
	return time.Duration(s.StallMS * float64(time.Millisecond))
}

func (f *FaultSpec) maxEvents() int {
	if f.MaxEvents == 0 {
		return DefaultMaxEvents
	}
	return f.MaxEvents
}
func (f *FaultSpec) kinds() []faults.Kind {
	if len(f.Kinds) == 0 {
		return []faults.Kind{faults.LinkDown, faults.RateDegrade, faults.BurstLoss, faults.CreditLoss}
	}
	out := make([]faults.Kind, len(f.Kinds))
	for i, k := range f.Kinds {
		out[i] = faults.Kind(k)
	}
	return out
}
func (f *FaultSpec) links() []string { return orDefault(f.Links, "*") }

func (o *OracleSpec) maxStrays() int64 {
	switch {
	case o.MaxStrays < 0:
		return -1
	case o.MaxStrays == 0:
		return DefaultMaxStrays
	default:
		return o.MaxStrays
	}
}
func (o *OracleSpec) requireCompletion() bool {
	if o.RequireCompletion == nil {
		return true
	}
	return *o.RequireCompletion
}

func orDefault[T any](axis []T, def T) []T {
	if len(axis) == 0 {
		return []T{def}
	}
	return axis
}

// ParseSpec decodes and validates a strict-JSON chaos spec.
func ParseSpec(data []byte) (*Spec, error) {
	var s Spec
	if err := planspec.DecodeStrict(data, &s); err != nil {
		return nil, fmt.Errorf("chaos: parsing spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// ParseSpecFile reads a chaos spec from disk.
func ParseSpecFile(p string) (*Spec, error) {
	data, err := os.ReadFile(p)
	if err != nil {
		return nil, err
	}
	s, err := ParseSpec(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p, err)
	}
	return s, nil
}

// Validate checks every axis value against the registries it samples
// from, so a bad spec fails before the first trial rather than as a
// panic mid-soak.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("chaos: spec needs a name")
	}
	if s.Trials <= 0 {
		return fmt.Errorf("chaos: trials must be > 0 (got %d)", s.Trials)
	}
	if err := farm.CheckNames(s.schemes(), s.topos(), s.workloads()); err != nil {
		return fmt.Errorf("chaos: %w", err)
	}
	for _, n := range s.shards() {
		if n < 0 {
			return fmt.Errorf("chaos: shards must be >= 0 (got %d)", n)
		}
	}
	lo, hi := s.loadRange()
	if lo < 0 || hi < lo || hi > 2 {
		return fmt.Errorf("chaos: load range [%g, %g] invalid", lo, hi)
	}
	dlo, dhi := s.deployRange()
	if dlo < 0 || dhi < dlo || dhi > 1 {
		return fmt.Errorf("chaos: deployment range [%g, %g] invalid", dlo, dhi)
	}
	if s.Faults.MaxEvents < 0 {
		return fmt.Errorf("chaos: faults.max_events must be >= 0")
	}
	valid := map[faults.Kind]bool{
		faults.LinkDown: true, faults.RateDegrade: true,
		faults.BurstLoss: true, faults.CreditLoss: true,
	}
	for _, k := range s.Faults.kinds() {
		if !valid[k] {
			return fmt.Errorf("chaos: faults.kinds entry %q is not a samplable fault kind", k)
		}
	}
	for _, g := range s.Faults.links() {
		if _, err := path.Match(g, "probe"); err != nil {
			return fmt.Errorf("chaos: faults.links glob %q: %w", g, err)
		}
	}
	ws, we := s.windowPS()
	if ws < 0 || we <= ws {
		return fmt.Errorf("chaos: fault window [%gms, %gms] is empty",
			s.Faults.WindowStartMS, s.Faults.WindowEndMS)
	}
	return nil
}
