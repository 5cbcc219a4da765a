package harness

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"flexpass/internal/faults"
	"flexpass/internal/metrics"
	"flexpass/internal/sim"
)

// Graceful-degradation harness: run the same scenario clean and under a
// fault plan, per scheme, and report how much each scheme loses — the
// robustness experiment behind the paper's §4.3 failure discussion.
// Both runs of a pair share the scenario seed, so the workloads are
// identical flow-for-flow and every delta is attributable to the plan.

// RunSummary condenses one run for degradation comparison.
type RunSummary struct {
	GoodputGbps float64 `json:"goodput_gbps"` // delivered bytes over the full run window
	FCTAvgUs    float64 `json:"fct_avg_us"`
	FCTP99Us    float64 `json:"fct_p99_us"`
	Completed   int     `json:"completed"`
	Flows       int     `json:"flows"`
	Timeouts    int     `json:"timeouts"`
	Retransmits int     `json:"retransmits"`
	// InjectedDrops counts packets destroyed by fault injection (always 0
	// for the clean run).
	InjectedDrops int64 `json:"injected_drops,omitempty"`
	// LastFinishPs is the latest flow-completion instant.
	LastFinishPs int64 `json:"last_finish_ps"`
}

// Summarize condenses a run result.
func Summarize(res *Result) RunSummary {
	s := metrics.Summarize(res.Flows.Records)
	return RunSummary{
		GoodputGbps:   s.GoodputGbps(res.Scenario.Duration + res.Scenario.Drain),
		FCTAvgUs:      s.MeanFCT.Micros(),
		FCTP99Us:      s.P99FCT.Micros(),
		Completed:     s.Completed,
		Flows:         s.Flows,
		Timeouts:      s.Timeouts,
		Retransmits:   s.Retransmits,
		InjectedDrops: res.FaultDrops.Injected,
		LastFinishPs:  int64(s.LastFinish),
	}
}

// SchemeDegradation is one scheme's clean-vs-faulted pair.
type SchemeDegradation struct {
	Scheme  string     `json:"scheme"`
	Clean   RunSummary `json:"clean"`
	Faulted RunSummary `json:"faulted"`
	// GoodputDeltaPct and FCTP99DeltaPct are the faulted run relative to
	// clean (negative goodput delta = throughput lost to the faults).
	GoodputDeltaPct float64 `json:"goodput_delta_pct"`
	FCTP99DeltaPct  float64 `json:"fct_p99_delta_pct"`
	// RecoveryPs measures how long after the last scripted fault cleared
	// the faulted run still had flows finishing: latest completion minus
	// Plan.End(), clamped at zero. Small values mean the scheme absorbed
	// the faults inside the fault window.
	RecoveryPs int64 `json:"recovery_ps"`
}

// Degradation is a full graceful-degradation report.
type Degradation struct {
	PlanName string              `json:"plan"`
	PlanEnd  int64               `json:"plan_end_ps"`
	Events   int                 `json:"events"`
	Schemes  []SchemeDegradation `json:"schemes"`
}

// RunDegradation executes every scheme twice — clean, then with the
// plan — on otherwise identical copies of base (same seed, so the same
// workload flow-for-flow) and reports the deltas. A nil or empty scheme
// list runs the paper's four deployment schemes.
func RunDegradation(base Scenario, plan *faults.Plan, schemes []Scheme) *Degradation {
	if len(schemes) == 0 {
		schemes = Schemes
	}
	d := &Degradation{PlanName: plan.Name, PlanEnd: int64(plan.End()), Events: len(plan.Events)}
	for _, s := range schemes {
		clean := base
		clean.Scheme = s
		clean.FaultPlan = nil
		faulted := base
		faulted.Scheme = s
		faulted.FaultPlan = plan
		sd := SchemeDegradation{
			Scheme:  string(s),
			Clean:   Summarize(Run(clean)),
			Faulted: Summarize(Run(faulted)),
		}
		sd.GoodputDeltaPct = deltaPct(sd.Clean.GoodputGbps, sd.Faulted.GoodputGbps)
		sd.FCTP99DeltaPct = deltaPct(sd.Clean.FCTP99Us, sd.Faulted.FCTP99Us)
		if rec := sd.Faulted.LastFinishPs - d.PlanEnd; rec > 0 {
			sd.RecoveryPs = rec
		}
		d.Schemes = append(d.Schemes, sd)
	}
	return d
}

// deltaPct is the percent change from clean to faulted (0 when the
// clean value is 0, so empty runs don't divide by zero).
func deltaPct(clean, faulted float64) float64 {
	if clean == 0 {
		return 0
	}
	return (faulted - clean) / clean * 100
}

// WriteJSONL streams the report: one "degradation-plan" header line,
// then one "degradation" line per scheme — the same envelope-per-line
// convention as the obs run artifact.
func (d *Degradation) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	head := struct {
		Type    string `json:"type"`
		Plan    string `json:"plan"`
		Events  int    `json:"events"`
		EndPs   int64  `json:"plan_end_ps"`
		Schemes int    `json:"schemes"`
	}{"degradation-plan", d.PlanName, d.Events, d.PlanEnd, len(d.Schemes)}
	if err := enc.Encode(head); err != nil {
		return err
	}
	for i := range d.Schemes {
		line := struct {
			Type string `json:"type"`
			SchemeDegradation
		}{"degradation", d.Schemes[i]}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteCSV emits one row per scheme with the headline deltas.
func (d *Degradation) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "scheme,goodput_clean_gbps,goodput_faulted_gbps,goodput_delta_pct,"+
		"fct_p99_clean_us,fct_p99_faulted_us,fct_p99_delta_pct,"+
		"completed_clean,completed_faulted,flows,timeouts_faulted,injected_drops,recovery_us"); err != nil {
		return err
	}
	for _, s := range d.Schemes {
		if _, err := fmt.Fprintf(bw, "%s,%.3f,%.3f,%.2f,%.1f,%.1f,%.2f,%d,%d,%d,%d,%d,%.1f\n",
			s.Scheme, s.Clean.GoodputGbps, s.Faulted.GoodputGbps, s.GoodputDeltaPct,
			s.Clean.FCTP99Us, s.Faulted.FCTP99Us, s.FCTP99DeltaPct,
			s.Clean.Completed, s.Faulted.Completed, s.Faulted.Flows,
			s.Faulted.Timeouts, s.Faulted.InjectedDrops,
			sim.Time(s.RecoveryPs).Micros()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteFiles writes the report next to each other as <stem>.jsonl and
// <stem>.csv.
func (d *Degradation) WriteFiles(stem string) error {
	for ext, write := range map[string]func(io.Writer) error{
		".jsonl": d.WriteJSONL, ".csv": d.WriteCSV,
	} {
		f, err := os.Create(stem + ext)
		if err != nil {
			return err
		}
		if err := write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// String renders a console table.
func (d *Degradation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "degradation under plan %q (%d events, clears at %v)\n",
		d.PlanName, d.Events, sim.Time(d.PlanEnd))
	fmt.Fprintf(&b, "%-16s %12s %12s %9s %12s %9s %10s %10s\n",
		"scheme", "goodput", "faulted", "Δ%", "p99 FCT", "Δ%", "drops", "recovery")
	for _, s := range d.Schemes {
		fmt.Fprintf(&b, "%-16s %9.3fGb %9.3fGb %8.2f%% %10.1fus %8.2f%% %10d %10v\n",
			s.Scheme, s.Clean.GoodputGbps, s.Faulted.GoodputGbps, s.GoodputDeltaPct,
			s.Clean.FCTP99Us, s.FCTP99DeltaPct, s.Faulted.InjectedDrops,
			sim.Time(s.RecoveryPs))
	}
	return b.String()
}
