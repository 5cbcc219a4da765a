package chaos

import (
	"errors"
	"fmt"
	"time"

	"flexpass/internal/farm"
	"flexpass/internal/forensics"
	"flexpass/internal/harness"
	"flexpass/internal/metrics"
	"flexpass/internal/obs"
	"flexpass/internal/sim"
)

// Outcome classifies one trial. Precedence when several oracles fire:
// killed/error (the run did not finish cleanly) over violation (an
// auditor invariant broke) over incomplete (flows never finished) over
// strays (recovery leaked packets).
type Outcome string

const (
	OutcomePass       Outcome = "pass"
	OutcomeViolation  Outcome = "violation"  // forensics auditor invariant broke
	OutcomeIncomplete Outcome = "incomplete" // flows unfinished after the drain
	OutcomeStrays     Outcome = "strays"     // stray-packet count over the oracle bound
	OutcomeKilled     Outcome = "killed"     // watchdog deadline/stall kill
	OutcomeError      Outcome = "error"      // run panicked
)

// Verdict is one trial's oracle evaluation.
type Verdict struct {
	Outcome Outcome `json:"outcome"`
	Detail  string  `json:"detail,omitempty"`

	Violations        int   `json:"violations,omitempty"`
	ViolationsDropped int64 `json:"violations_dropped,omitempty"`
	Incomplete        int   `json:"incomplete,omitempty"`
	Strays            int64 `json:"strays,omitempty"`
}

// Failed reports whether the verdict is anything but a pass.
func (v Verdict) Failed() bool { return v.Outcome != OutcomePass }

// Evaluate applies the oracle thresholds to a finished run. The
// forensics auditors are hard oracles: any recorded violation — or any
// violation dropped over the retention cap — fails the trial.
func Evaluate(res *harness.Result, o OracleSpec) Verdict {
	v := Verdict{Outcome: OutcomePass}
	if res.Forensics != nil {
		v.Violations = len(res.Forensics.Violations)
		v.ViolationsDropped = res.Forensics.ViolationsDropped
	}
	flows := metrics.Summarize(res.Flows.Records)
	v.Incomplete = flows.Incomplete()
	v.Strays = strayCount(res.Telemetry)
	switch {
	case v.Violations > 0:
		v.Outcome = OutcomeViolation
		v.Detail = res.Forensics.Violations[0].String()
	case v.ViolationsDropped > 0:
		v.Outcome = OutcomeViolation
		v.Detail = fmt.Sprintf("%d violations dropped over the auditor retention cap", v.ViolationsDropped)
	case o.requireCompletion() && v.Incomplete > 0:
		v.Outcome = OutcomeIncomplete
		v.Detail = fmt.Sprintf("%d of %d flows incomplete after drain", v.Incomplete, flows.Flows)
	case o.maxStrays() >= 0 && v.Strays > o.maxStrays():
		v.Outcome = OutcomeStrays
		v.Detail = fmt.Sprintf("stray_packets = %d > %d", v.Strays, o.maxStrays())
	}
	return v
}

// judge is the one supervised run behind soak trials, replays and shrink
// probes: it sets the watchdog limits, lets mutate (nil = none) edit the
// scenario, runs it, and evaluates the oracles. A watchdog kill is
// OutcomeKilled, any other panic out of the run OutcomeError.
func judge(sc harness.Scenario, o OracleSpec, deadline, stall time.Duration, mutate func(*harness.Scenario)) Verdict {
	sc.Deadline = deadline
	sc.StallTimeout = stall
	if mutate != nil {
		mutate(&sc)
	}
	res, err := harness.Try(harness.Run, sc)
	var ke *harness.KilledError
	switch {
	case errors.As(err, &ke):
		return Verdict{Outcome: OutcomeKilled, Detail: ke.Error()}
	case err != nil:
		return Verdict{Outcome: OutcomeError, Detail: err.Error()}
	}
	return Evaluate(res, o)
}

// strayCount sums the transport agents' stray-packet counters out of
// the run artifact.
func strayCount(run *obs.Run) int64 {
	if run == nil {
		return 0
	}
	var n int64
	for _, c := range run.Counters {
		if c.Entity == "transport/agent" && c.Metric == "stray_packets" {
			n += c.Value
		}
	}
	return n
}

// Scenario builds the harness scenario for these coordinates — a farm
// point at the default queue weight, so chaos trials and sweep points are
// built one way — plus the forensics plane, whose auditors are the
// oracles, on trials that run on one plane; a trial its fabric cuts into
// several runs completion and stray oracles only (the recorder and
// auditors are single-goroutine state, see harness.Run). A testbed layout
// is one plane at any shard count. Names are checked where coordinates
// enter the program (Spec.Validate, ParseRepro).
func (c Coords) Scenario(o OracleSpec) harness.Scenario {
	sc := farm.Point{
		Scheme: c.Scheme, Topo: c.Topo, Workload: c.Workload,
		Load: c.Load, Deployment: c.Deployment, WQ: 0.5,
		Seed: c.Seed, Shards: c.Shards,
		DurationMS: c.DurationMS, DrainMS: c.DrainMS,
	}.Scenario()
	if farm.Topologies[c.Topo].Planes(c.Shards) == 1 {
		fo := &forensics.Options{}
		if o.StarveAfterMS > 0 {
			fo.StarveAfter = sim.Time(o.StarveAfterMS * float64(sim.Millisecond))
		}
		sc.Forensics = fo
	}
	return sc
}
