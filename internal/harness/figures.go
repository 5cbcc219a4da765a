package harness

import (
	"flexpass/internal/sim"
	"flexpass/internal/transport"
	"flexpass/internal/units"
	"flexpass/internal/workload"
)

// DeploymentPoint is one (scheme, deployment%) measurement with every
// statistic the deployment figures plot.
type DeploymentPoint struct {
	Scheme     Scheme
	Deployment float64
	Load       float64
	WQ         float64
	Workload   string

	// Fig 10/11/14/15/16.
	P99Small sim.Time // 99%-ile FCT of flows <100kB
	AvgAll   sim.Time // overall average FCT

	// Fig 12/13: split by traffic type.
	P99SmallLegacy, P99SmallNew sim.Time
	StdSmallLegacy, StdSmallNew sim.Time

	// Fig 5 ablations and §4.2 notes.
	AvgReorderKB  float64 // average per-flow max reordering buffer (upgraded flows)
	RedundantFrac float64 // duplicate volume / delivered volume

	// Bounded-queue measurements (when sampled).
	QueueAvg, QueueP90       int64
	QueueRedAvg, QueueRedP90 int64

	Timeouts   int
	Incomplete int
	OracleWQ   float64
	DropsRed   int64
	DropsCred  int64
	DropsOther int64
}

// RunPoint executes a scenario and reduces it to a DeploymentPoint,
// pooling across sc.PoolSeeds when set.
func RunPoint(sc Scenario) DeploymentPoint {
	return RunPooled(sc, sc.PoolSeeds)
}

// Sweep runs every (scheme, deployment) combination — times every seed
// of base.PoolSeeds when set — on one GOMAXPROCS-wide pool and returns
// points in deterministic order.
func Sweep(base Scenario, schemes []Scheme, deployments []float64) []DeploymentPoint {
	var scs []Scenario
	for _, s := range schemes {
		for _, d := range deployments {
			sc := base
			sc.Scheme = s
			sc.Deployment = d
			scs = append(scs, sc)
		}
	}
	return runPooled(scs, base.PoolSeeds)
}

// StandardDeployments are the paper's x-axis points.
var StandardDeployments = []float64{0, 0.25, 0.5, 0.75, 1.0}

// Fig10 runs the background-only deployment sweep (web search, 50% load)
// across the four schemes. Also yields Fig 12 and Fig 13 columns.
func Fig10(base Scenario) []DeploymentPoint {
	base.IncastFraction = 0
	base.SampleQueues = true
	return Sweep(base, Schemes, StandardDeployments)
}

// Fig11 repeats Fig 10 with 10% foreground incast traffic.
func Fig11(base Scenario) []DeploymentPoint {
	base.IncastFraction = 0.1
	return Sweep(base, Schemes, StandardDeployments)
}

// Fig5a compares FlexPass with RC3-style splitting: tail FCT of small
// flows vs average per-flow reordering buffer.
func Fig5a(base Scenario) []DeploymentPoint {
	return Sweep(base, []Scheme{SchemeFlexPass, SchemeFlexPassRC3}, []float64{0.25, 0.5, 0.75, 1.0})
}

// Fig5b compares FlexPass with the alternative queueing ablation across
// deployment ratios.
func Fig5b(base Scenario) []DeploymentPoint {
	return Sweep(base, []Scheme{SchemeFlexPass, SchemeFlexPassAltQ}, StandardDeployments)
}

// Fig14 sweeps network load (10/40/70%) for naïve ExpressPass and
// FlexPass.
func Fig14(base Scenario, loads []float64) []DeploymentPoint {
	var out []DeploymentPoint
	for _, load := range loads {
		b := base
		b.Load = load
		out = append(out, Sweep(b, []Scheme{SchemeNaive, SchemeFlexPass}, StandardDeployments)...)
	}
	return out
}

// Fig15and16 sweeps the four realistic workloads across all schemes
// (99%-ile small-flow FCT and overall average FCT).
func Fig15and16(base Scenario, workloads []string) []DeploymentPoint {
	var out []DeploymentPoint
	for _, name := range workloads {
		b := base
		b.Workload = workload.ByName(name)
		if b.Workload == nil {
			panic("harness: unknown workload " + name)
		}
		out = append(out, Sweep(b, Schemes, StandardDeployments)...)
	}
	return out
}

// Fig17 sweeps the selective-dropping threshold at full deployment:
// trade-off between small-flow tail FCT and overall average FCT.
func Fig17(base Scenario, thresholds []units.ByteSize) []DeploymentPoint {
	var out []DeploymentPoint
	for _, thr := range thresholds {
		b := base
		b.Scheme = SchemeFlexPass
		b.Deployment = 1.0
		b.Spec.FlexRed = thr
		b.SampleQueues = true
		out = append(out, RunPoint(b))
	}
	return out
}

// Fig18Row summarizes one w_q setting (Fig 18): worst legacy small-flow
// tail degradation during deployment, and the tail FCT at full
// deployment.
type Fig18Row struct {
	WQ                   float64
	MaxLegacyDegradation float64 // vs the 0%-deployment legacy tail
	P99SmallFull         sim.Time
	Points               []DeploymentPoint
}

// AblationRow is one design-choice ablation measurement.
type AblationRow struct {
	Name  string
	Point DeploymentPoint
}

// Ablations runs the design-choice ablations DESIGN.md calls out, all at
// 50% deployment under the base workload: the paper's FlexPass, FlexPass
// without proactive retransmission, FlexPass with the loss-based (Reno)
// reactive sub-flow, the RC3 splitting variant, and the alternative
// queueing variant.
func Ablations(base Scenario) []AblationRow {
	base.Deployment = 0.5
	mk := func(name string, mod func(*Scenario)) AblationRow {
		sc := base
		sc.Scheme = SchemeFlexPass
		mod(&sc)
		return AblationRow{Name: name, Point: RunPoint(sc)}
	}
	return []AblationRow{
		mk("flexpass", func(*Scenario) {}),
		mk("no-proactive-retx", func(sc *Scenario) {
			sc.SchemeOptions = map[string]string{transport.OptDisableProRetx: "1"}
		}),
		mk("reno-reactive", func(sc *Scenario) {
			sc.SchemeOptions = map[string]string{transport.OptReactive: "reno"}
		}),
		mk("rc3-split", func(sc *Scenario) { sc.Scheme = SchemeFlexPassRC3 }),
		mk("alt-queueing", func(sc *Scenario) { sc.Scheme = SchemeFlexPassAltQ }),
	}
}

// Fig18 sweeps the queue weight w_q.
func Fig18(base Scenario, wqs []float64) []Fig18Row {
	var rows []Fig18Row
	for _, wq := range wqs {
		b := base
		b.Scheme = SchemeFlexPass
		b.WQ = wq
		pts := Sweep(b, []Scheme{SchemeFlexPass}, StandardDeployments)
		row := Fig18Row{WQ: wq, Points: pts}
		var base0 sim.Time
		for _, p := range pts {
			if p.Deployment == 0 {
				base0 = p.P99SmallLegacy
			}
		}
		for _, p := range pts {
			if p.Deployment == 0 || base0 == 0 {
				continue
			}
			deg := float64(p.P99SmallLegacy-base0) / float64(base0)
			if p.Deployment < 1 && deg > row.MaxLegacyDegradation {
				row.MaxLegacyDegradation = deg
			}
			if p.Deployment == 1 {
				row.P99SmallFull = p.P99Small
			}
		}
		rows = append(rows, row)
	}
	return rows
}
