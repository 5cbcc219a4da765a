package harness

import (
	"testing"

	"flexpass/internal/metrics"
	"flexpass/internal/sim"
	"flexpass/internal/units"
)

// miniBase is a fast small-scale scenario for shape assertions.
func miniBase() Scenario {
	sc := BaseScenario(false)
	sc.Duration = 10 * sim.Millisecond
	sc.Drain = 50 * sim.Millisecond
	return sc
}

// incomplete counts the run's flows that never finished.
func incomplete(res *Result) int { return metrics.Summarize(res.Flows.Records).Incomplete() }

func meanRate(rs []units.Rate, skip int) units.Rate {
	if len(rs) <= skip {
		return 0
	}
	var sum int64
	for _, r := range rs[skip:] {
		sum += int64(r)
	}
	return units.Rate(sum / int64(len(rs)-skip))
}

func TestRunProducesCompleteFlows(t *testing.T) {
	sc := miniBase()
	sc.Duration = 5 * sim.Millisecond
	res := Run(sc)
	if len(res.Flows.Records) == 0 {
		t.Fatal("no flows generated")
	}
	if incomplete(res) > 0 {
		t.Fatalf("%d flows incomplete after drain", incomplete(res))
	}
}

func TestRunDeterministic(t *testing.T) {
	sc := miniBase()
	sc.Duration = 3 * sim.Millisecond
	a := Run(sc)
	b := Run(sc)
	if len(a.Flows.Records) != len(b.Flows.Records) {
		t.Fatal("flow counts differ between identical runs")
	}
	for i := range a.Flows.Records {
		if a.Flows.Records[i].FCT != b.Flows.Records[i].FCT {
			t.Fatalf("flow %d FCT differs: %v vs %v", i,
				a.Flows.Records[i].FCT, b.Flows.Records[i].FCT)
		}
	}
}

func TestFlexPassDeploymentShape(t *testing.T) {
	// The paper's central claims at small scale: during deployment
	// FlexPass barely harms legacy traffic and upgraded traffic gets a
	// much better tail; naïve ExpressPass wrecks the legacy tail.
	base := miniBase()
	pts := Sweep(base, []Scheme{SchemeNaive, SchemeFlexPass}, []float64{0, 0.5, 1.0})
	byKey := map[string]DeploymentPoint{}
	for _, p := range pts {
		byKey[string(p.Scheme)+"/"+fstr(p.Deployment)] = p
	}
	base0 := byKey["naive/0.00"].P99Small // all-legacy baseline

	fp50 := byKey["flexpass/0.50"]
	if fp50.P99SmallLegacy > base0*3/2 {
		t.Errorf("FlexPass at 50%%: legacy p99 %v vs baseline %v — too much harm",
			fp50.P99SmallLegacy, base0)
	}
	if fp50.P99SmallNew >= fp50.P99SmallLegacy {
		t.Errorf("FlexPass at 50%%: upgraded p99 %v not better than legacy %v",
			fp50.P99SmallNew, fp50.P99SmallLegacy)
	}

	nv50 := byKey["naive/0.50"]
	if nv50.P99SmallLegacy < base0*3/2 {
		t.Errorf("naïve at 50%%: legacy p99 %v vs baseline %v — expected strong degradation",
			nv50.P99SmallLegacy, base0)
	}

	fp100 := byKey["flexpass/1.00"]
	if fp100.P99Small >= base0 {
		t.Errorf("FlexPass fully deployed p99 %v not better than DCTCP baseline %v",
			fp100.P99Small, base0)
	}
	fp0 := byKey["flexpass/0.00"]
	if fp100.AvgAll > fp0.AvgAll*5/4 {
		t.Errorf("FlexPass fully deployed avg FCT %v vs baseline %v — utilization lost",
			fp100.AvgAll, fp0.AvgAll)
	}
}

func fstr(f float64) string {
	switch f {
	case 0:
		return "0.00"
	case 0.5:
		return "0.50"
	case 1:
		return "1.00"
	}
	return "?"
}

func TestFig1aStarvationShape(t *testing.T) {
	s := Fig1a(1, 60*sim.Millisecond)
	xp := meanRate(s.Series["ExpressPass"], 5)
	dc := meanRate(s.Series["DCTCP"], 5)
	tot := xp + dc
	if tot < 7*units.Gbps {
		t.Fatalf("bottleneck underutilized: %v", tot)
	}
	if float64(dc)/float64(tot) > 0.25 {
		t.Fatalf("DCTCP share %.2f; expected starvation", float64(dc)/float64(tot))
	}
}

func TestFig1bHomaStarvationShape(t *testing.T) {
	s := Fig1b(1, 40*sim.Millisecond)
	ho := meanRate(s.Series["HOMA"], 5)
	dc := meanRate(s.Series["DCTCP"], 5)
	if ho+dc == 0 {
		t.Fatal("no progress")
	}
	if float64(dc)/float64(ho+dc) > 0.3 {
		t.Fatalf("DCTCP share %.2f under 16 HOMA flows; expected starvation",
			float64(dc)/float64(ho+dc))
	}
}

func TestFig7SubflowShares(t *testing.T) {
	// (a) alone: proactive ≈ w_q, reactive grabs the rest; link ~full.
	a := Fig7("a", 1, 40*sim.Millisecond)
	pro := meanRate(a.Series["Proactive"], 5)
	re := meanRate(a.Series["Reactive"], 5)
	if pro+re < 8*units.Gbps {
		t.Fatalf("Fig7a total %v, want ~9.5Gbps", pro+re)
	}
	proShare := float64(pro) / float64(pro+re)
	if proShare < 0.35 || proShare > 0.65 {
		t.Fatalf("Fig7a proactive share %.2f, want ~0.5", proShare)
	}
	// (c) vs DCTCP: both take ~half; reactive nearly silent.
	c := Fig7("c", 1, 60*sim.Millisecond)
	dc := meanRate(c.Series["DCTCP"], 5)
	proC := meanRate(c.Series["Proactive"], 5)
	reC := meanRate(c.Series["Reactive"], 5)
	dcShare := float64(dc) / float64(dc+proC+reC)
	if dcShare < 0.35 || dcShare > 0.65 {
		t.Fatalf("Fig7c DCTCP share %.2f, want ~0.5", dcShare)
	}
	if float64(reC)/float64(proC+reC) > 0.35 {
		t.Fatalf("Fig7c reactive share among sub-flows %.2f; should be small under competition",
			float64(reC)/float64(proC+reC))
	}
}

func TestFig9StarvationMetric(t *testing.T) {
	r := Fig9(1, 80*sim.Millisecond)
	if r.StarvedExpressPassSide < 0.5 {
		t.Fatalf("DCTCP starved %.0f%% of windows under naïve ExpressPass, want most",
			r.StarvedExpressPassSide*100)
	}
	if r.StarvedFlexPassSide > 0.1 {
		t.Fatalf("DCTCP starved %.0f%% of windows under FlexPass, want ~0",
			r.StarvedFlexPassSide*100)
	}
}

func TestFig8IncastShape(t *testing.T) {
	rows := Fig8([]int{64}, []int64{1})
	byTP := map[string]Fig8Row{}
	for _, r := range rows {
		byTP[r.Transport] = r
	}
	if byTP["dctcp"].Timeouts == 0 {
		t.Error("DCTCP should hit RTOs in a 64-way incast")
	}
	if byTP["flexpass"].Timeouts != 0 {
		t.Errorf("FlexPass hit %d timeouts, want 0", byTP["flexpass"].Timeouts)
	}
	if byTP["expresspass"].Timeouts != 0 {
		t.Errorf("ExpressPass hit %d timeouts, want 0", byTP["expresspass"].Timeouts)
	}
	if byTP["flexpass"].MaxFCT >= byTP["dctcp"].MaxFCT {
		t.Errorf("FlexPass tail %v not better than DCTCP %v",
			byTP["flexpass"].MaxFCT, byTP["dctcp"].MaxFCT)
	}
}

func TestFig17ThresholdTradeoff(t *testing.T) {
	base := miniBase()
	base.Duration = 5 * sim.Millisecond
	pts := Fig17(base, []units.ByteSize{50 * units.KB, 150 * units.KB})
	if len(pts) != 2 {
		t.Fatalf("%d points", len(pts))
	}
	for _, p := range pts {
		if p.Incomplete > 0 {
			t.Fatalf("threshold %v left %d flows incomplete", p.WQ, p.Incomplete)
		}
	}
}

func TestFig18WQSweepRuns(t *testing.T) {
	base := miniBase()
	base.Duration = 4 * sim.Millisecond
	rows := Fig18(base, []float64{0.4, 0.6})
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.P99SmallFull == 0 {
			t.Fatalf("wq=%.2f: missing full-deployment point", r.WQ)
		}
	}
}

func TestOracleWQTracksDeployment(t *testing.T) {
	sc := miniBase()
	sc.Duration = 4 * sim.Millisecond
	sc.Scheme = SchemeOWF
	sc.Deployment = 1.0
	res := Run(sc)
	if res.OracleWQ < 0.9 {
		t.Fatalf("oracle weight %.2f at full deployment, want ~1", res.OracleWQ)
	}
	sc.Deployment = 0
	res = Run(sc)
	if res.OracleWQ > 0.1 {
		t.Fatalf("oracle weight %.2f at zero deployment, want ~0", res.OracleWQ)
	}
}

func TestMixedTrafficIncastRuns(t *testing.T) {
	sc := miniBase()
	sc.Duration = 5 * sim.Millisecond
	sc.IncastFraction = 0.1
	res := Run(sc)
	incast := 0
	for _, r := range res.Flows.Records {
		if r.Incast && r.Completed {
			incast++
		}
	}
	if incast == 0 {
		t.Fatal("no foreground incast flows completed")
	}
	if incomplete(res) > 0 {
		t.Fatalf("%d incomplete flows", incomplete(res))
	}
}

func TestQueueOccupancySampled(t *testing.T) {
	sc := miniBase()
	sc.Duration = 5 * sim.Millisecond
	sc.SampleQueues = true
	sc.Deployment = 1.0
	res := Run(sc)
	if res.QueueP90 == 0 && res.QueueAvg == 0 {
		t.Fatal("queue sampling produced nothing")
	}
	// Bounded queue: Q1 occupancy must stay at the selective-dropping
	// scale, far below the 1.125MB dynamic buffer bound.
	if res.QueueP90 > 300_000 {
		t.Fatalf("Q1 p90 occupancy %dB; not bounded", res.QueueP90)
	}
}
