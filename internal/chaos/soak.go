package chaos

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"flexpass/internal/harness"
)

// TrialResult is one soaked trial's record: the full trial (it is
// self-contained — coordinates plus plan), its verdict, and where the
// repro document landed if it failed.
type TrialResult struct {
	Trial     Trial   `json:"trial"`
	Verdict   Verdict `json:"verdict"`
	ElapsedMS float64 `json:"elapsed_ms"`
	ReproPath string  `json:"repro,omitempty"`
}

// SoakReport aggregates a soak.
type SoakReport struct {
	Spec      string          `json:"spec"`
	Trials    int             `json:"trials"`
	Passed    int             `json:"passed"`
	Failed    int             `json:"failed"`
	ByOutcome map[Outcome]int `json:"by_outcome"`
	Canceled  bool            `json:"canceled,omitempty"`
	Results   []TrialResult   `json:"-"` // trial order; persisted as trials.jsonl, not in the summary
}

// SoakOptions configures a soak run.
type SoakOptions struct {
	// Workers caps concurrent trials (default: GOMAXPROCS).
	Workers int
	// Ctx cancels the soak between trials; in-flight trials finish.
	Ctx context.Context
	// OutDir, when set, receives trials.jsonl plus a repro-<trial>.json
	// per failing trial.
	OutDir string
	// Progress, when non-nil, observes each result as it lands
	// (called from worker goroutines, completion order).
	Progress func(TrialResult)
	// Mutate, when non-nil, edits each trial's scenario before the run
	// — the test seam for forcing failures (e.g. wrapping the credit
	// accountant) without a fault plan that really breaks invariants.
	Mutate func(*harness.Scenario)
}

// Soak runs every trial through the harness and the oracles on one
// harness.Each pool. Trials that panic — including watchdog kills — come
// back from harness.Try as errors and are classified, never aborting the
// soak. Results come back in trial order.
func Soak(spec *Spec, trials []Trial, opt SoakOptions) (*SoakReport, error) {
	ctx := opt.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	rep := &SoakReport{
		Spec:      spec.Name,
		Trials:    len(trials),
		ByOutcome: map[Outcome]int{},
		Results:   make([]TrialResult, len(trials)),
	}
	dispatched := harness.Each(ctx, opt.Workers, len(trials), func(_, i int) {
		rep.Results[i] = soakOne(trials[i], spec, opt)
		if opt.Progress != nil {
			opt.Progress(rep.Results[i])
		}
	})
	rep.Canceled = dispatched < len(trials)

	for i := range rep.Results {
		r := &rep.Results[i]
		if rep.Canceled && r.Verdict.Outcome == "" {
			continue // never dispatched
		}
		rep.ByOutcome[r.Verdict.Outcome]++
		if r.Verdict.Failed() {
			rep.Failed++
		} else {
			rep.Passed++
		}
	}
	if opt.OutDir != "" {
		if err := writeTrialLog(opt.OutDir, rep); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// soakOne runs a single trial end to end: scenario build, harness run
// under the spec's watchdog limits, oracle evaluation, and — on
// failure — the repro document with its pinned flow list.
func soakOne(t Trial, spec *Spec, opt SoakOptions) TrialResult {
	start := time.Now()
	sc := t.Coords.Scenario(spec.Oracles)
	sc.FaultPlan = t.Plan
	v := judge(sc, spec.Oracles, spec.deadline(), spec.stall(), opt.Mutate)
	tr := TrialResult{
		Trial:     t,
		Verdict:   v,
		ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond),
	}
	if v.Failed() && opt.OutDir != "" {
		r := reproFor(t, spec.Name, spec.Oracles, v)
		p := filepath.Join(opt.OutDir, fmt.Sprintf("repro-%d.json", t.Index))
		if err := r.WriteFile(p); err == nil {
			tr.ReproPath = p
		}
	}
	return tr
}

// writeTrialLog persists every result as one JSONL record per trial.
func writeTrialLog(dir string, rep *SoakReport) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	p := filepath.Join(dir, "trials.jsonl")
	f, err := os.Create(p)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range rep.Results {
		if rep.Results[i].Verdict.Outcome == "" {
			continue // canceled before dispatch
		}
		if err := enc.Encode(&rep.Results[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
