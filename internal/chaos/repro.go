package chaos

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"flexpass/internal/farm"
	"flexpass/internal/faults"
	"flexpass/internal/harness"
	"flexpass/internal/planspec"
	"flexpass/internal/sim"
	"flexpass/internal/workload"
)

// ReproSchema versions the repro document layout. The "chaos" key
// doubles as the marker that distinguishes a repro document from a
// bare fault plan, so `flexsim -fault repro.json` can detect and
// replay the full scenario rather than just its fault timeline.
const ReproSchema = 1

// ReproFlow is one pinned flow in a repro document: workload.FlowSpec
// with stable JSON names. Pinning the flow list (instead of just the
// workload seed) is what makes the flow set shrinkable — the ddmin
// pass deletes entries and replays via the trace path.
type ReproFlow struct {
	Src    int    `json:"src"`
	Dst    int    `json:"dst"`
	Size   int64  `json:"size"`
	AtPs   int64  `json:"at_ps"`
	Incast bool   `json:"incast,omitempty"`
	Tenant string `json:"tenant,omitempty"`
	Coflow uint64 `json:"coflow,omitempty"`
}

func toReproFlows(fs []workload.FlowSpec) []ReproFlow {
	out := make([]ReproFlow, len(fs))
	for i, f := range fs {
		out[i] = ReproFlow{
			Src: f.Src, Dst: f.Dst, Size: f.Size, AtPs: int64(f.At),
			Incast: f.Incast, Tenant: f.Tenant, Coflow: f.Coflow,
		}
	}
	return out
}

func fromReproFlows(fs []ReproFlow) []workload.FlowSpec {
	out := make([]workload.FlowSpec, len(fs))
	for i, f := range fs {
		out[i] = workload.FlowSpec{
			Src: f.Src, Dst: f.Dst, Size: f.Size, At: sim.Time(f.AtPs),
			Incast: f.Incast, Tenant: f.Tenant, Coflow: f.Coflow,
		}
	}
	return out
}

// Repro is a self-contained failure reproduction: scenario
// coordinates, oracle thresholds, the fault plan, and the pinned flow
// list. Replay() rebuilds the exact scenario — the flow list rides the
// trace path, so the replay is bit-identical to the failing trial
// regardless of workload-generator evolution.
type Repro struct {
	Chaos   int     `json:"chaos"` // ReproSchema; also the format marker
	Spec    string  `json:"spec,omitempty"`
	Trial   int     `json:"trial"`
	Outcome Outcome `json:"outcome,omitempty"` // the failure class being reproduced
	Detail  string  `json:"detail,omitempty"`
	Coords
	Oracles OracleSpec   `json:"oracles"`
	Plan    *faults.Plan `json:"fault_plan,omitempty"`
	Flows   []ReproFlow  `json:"flows,omitempty"`
	Shrunk  bool         `json:"shrunk,omitempty"`
	Probes  int          `json:"probes,omitempty"` // replays the shrinker spent
}

// IsRepro cheaply tests whether a JSON document is a chaos repro (as
// opposed to a bare fault plan): it has a nonzero "chaos" key.
func IsRepro(data []byte) bool {
	var probe struct {
		Chaos int `json:"chaos"`
	}
	return json.Unmarshal(data, &probe) == nil && probe.Chaos != 0
}

// ParseRepro decodes a strict-JSON repro document.
func ParseRepro(data []byte) (*Repro, error) {
	var r Repro
	if err := planspec.DecodeStrict(data, &r); err != nil {
		return nil, fmt.Errorf("chaos: parsing repro: %w", err)
	}
	if r.Chaos == 0 {
		return nil, fmt.Errorf("chaos: document has no \"chaos\" marker; is this a bare fault plan?")
	}
	if r.Chaos > ReproSchema {
		return nil, fmt.Errorf("chaos: repro schema %d, this build reads <= %d", r.Chaos, ReproSchema)
	}
	if err := farm.CheckNames([]string{r.Scheme}, []string{r.Topo}, []string{r.Workload}); err != nil {
		return nil, fmt.Errorf("chaos: repro: %w", err)
	}
	if r.Plan != nil {
		if err := r.Plan.Validate(); err != nil {
			return nil, err
		}
	}
	return &r, nil
}

// ParseReproFile reads a repro document from disk.
func ParseReproFile(p string) (*Repro, error) {
	data, err := os.ReadFile(p)
	if err != nil {
		return nil, err
	}
	r, err := ParseRepro(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p, err)
	}
	return r, nil
}

// WriteFile persists the repro as indented JSON (tmp + rename).
func (r *Repro) WriteFile(p string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	tmp := p + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, p)
}

// Scenario rebuilds the harness scenario the repro describes.
func (r *Repro) Scenario() harness.Scenario {
	sc := r.Coords.Scenario(r.Oracles)
	sc.FaultPlan = r.Plan
	if r.Flows != nil {
		sc.TraceFlows = fromReproFlows(r.Flows)
	}
	return sc
}

// Replay runs the repro and evaluates the oracles, converting watchdog
// kills and panics into verdicts the same way the soak runner does.
// deadline/stall (0 = off) guard the replay itself.
func (r *Repro) Replay(deadline, stall time.Duration) Verdict {
	return judge(r.Scenario(), r.Oracles, deadline, stall, nil)
}

// reproFor builds the (unshrunk) repro document for a failing trial,
// pinning the flow list the coordinates generate.
func reproFor(t Trial, specName string, o OracleSpec, v Verdict) *Repro {
	sc := t.Coords.Scenario(o)
	return &Repro{
		Chaos:   ReproSchema,
		Spec:    specName,
		Trial:   t.Index,
		Outcome: v.Outcome,
		Detail:  v.Detail,
		Coords:  t.Coords,
		Oracles: o,
		Plan:    t.Plan,
		Flows:   toReproFlows(harness.Flows(sc)),
	}
}
