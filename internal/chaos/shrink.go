package chaos

import (
	"fmt"
	"time"

	"flexpass/internal/faults"
	"flexpass/internal/harness"
	"flexpass/internal/workload"
)

// ShrinkResult reports a minimization: the shrunk repro plus how much
// was removed and how many replays it cost.
type ShrinkResult struct {
	Repro        *Repro
	Probes       int
	EventsBefore int
	EventsAfter  int
	FlowsBefore  int
	FlowsAfter   int
}

// ShrinkOptions configures the shrinker.
type ShrinkOptions struct {
	// Deadline/Stall guard every probe replay (0 = off). Probes that
	// hang would otherwise stall the whole minimization.
	Deadline time.Duration
	Stall    time.Duration
	// Progress, when non-nil, observes each probe's verdict.
	Progress func(probe int, events, flows int, v Verdict)
	// Mutate mirrors SoakOptions.Mutate for test-seam failures.
	Mutate func(*harness.Scenario)
}

// Shrink delta-debugs a failing repro to a minimal one: it first pins
// the flow list (if the repro predates pinning), verifies the failure
// reproduces, then ddmin-minimizes the fault-plan event list and the
// flow set — in that order, since fewer fault events usually strand
// fewer flows. "Still failing" means the same Outcome class as the
// original; a shrink that morphs a credit-conservation violation into
// a generic incompletion is rejected.
func Shrink(r *Repro, opt ShrinkOptions) (*ShrinkResult, error) {
	work := *r
	if work.Flows == nil {
		work.Flows = harness.Flows(work.Coords.Scenario(work.Oracles))
	}
	res := &ShrinkResult{
		EventsBefore: planLen(work.Plan),
		FlowsBefore:  len(work.Flows),
	}
	probe := func(cand Repro) Verdict {
		res.Probes++
		v := judge(cand.Scenario(), cand.Oracles, opt.Deadline, opt.Stall, opt.Mutate)
		if opt.Progress != nil {
			opt.Progress(res.Probes, planLen(cand.Plan), len(cand.Flows), v)
		}
		return v
	}

	base := probe(work)
	if !base.Failed() {
		return nil, fmt.Errorf("chaos: repro does not fail under replay (outcome %s); nothing to shrink", base.Outcome)
	}
	target := r.Outcome
	if target == "" || target == OutcomePass {
		target = base.Outcome
	}
	if base.Outcome != target {
		return nil, fmt.Errorf("chaos: replay fails as %q but the repro records %q; refusing to shrink a different failure", base.Outcome, target)
	}

	// Minimize the fault timeline first. Probe the empty plan before
	// ddmin: failures seeded by the workload or a test seam need no
	// fault events at all.
	if work.Plan != nil && len(work.Plan.Events) > 0 {
		empty := work
		empty.Plan = &faults.Plan{Name: work.Plan.Name}
		if probe(empty).Outcome == target {
			work.Plan = empty.Plan
		} else if len(work.Plan.Events) > 1 {
			events := ddmin(work.Plan.Events, func(evs []faults.Event) bool {
				cand := work
				cand.Plan = &faults.Plan{Name: work.Plan.Name, Events: evs}
				return probe(cand).Outcome == target
			})
			work.Plan = &faults.Plan{Name: work.Plan.Name, Events: events}
		}
	}
	// Then the flow set. The floor is one flow: an empty pinned list
	// would fall back to the generated workload, changing the scenario.
	if len(work.Flows) > 1 {
		work.Flows = ddmin(work.Flows, func(fs []workload.FlowSpec) bool {
			cand := work
			cand.Flows = fs
			return probe(cand).Outcome == target
		})
	}

	work.Shrunk = true
	work.Probes = res.Probes
	work.Outcome = target
	res.Repro = &work
	res.EventsAfter = planLen(work.Plan)
	res.FlowsAfter = len(work.Flows)
	return res, nil
}

func planLen(p *faults.Plan) int {
	if p == nil {
		return 0
	}
	return len(p.Events)
}

// ddmin is Zeller's delta-debugging minimization over a slice: it
// returns a 1-minimal subsequence for which fails still holds, given
// that fails(items) holds. It probes complements of progressively
// finer partitions; when no complement fails at single-item
// granularity, no one remaining element can be removed.
func ddmin[T any](items []T, fails func([]T) bool) []T {
	cur := items
	n := 2
	for len(cur) >= 2 {
		chunk := (len(cur) + n - 1) / n
		reduced := false
		for start := 0; start < len(cur); start += chunk {
			end := start + chunk
			if end > len(cur) {
				end = len(cur)
			}
			complement := make([]T, 0, len(cur)-(end-start))
			complement = append(complement, cur[:start]...)
			complement = append(complement, cur[end:]...)
			if len(complement) > 0 && fails(complement) {
				cur = complement
				if n > 2 {
					n--
				}
				reduced = true
				break
			}
		}
		if !reduced {
			if n >= len(cur) {
				break
			}
			n *= 2
			if n > len(cur) {
				n = len(cur)
			}
		}
	}
	return cur
}
