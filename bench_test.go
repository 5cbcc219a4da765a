package flexpass

// One benchmark per paper figure/table. Each bench runs the corresponding
// harness driver at reduced scale and reports the figure's headline
// numbers as custom metrics (microseconds, Gbps, fractions), so
// `go test -bench=.` regenerates the shape of the whole evaluation.
//
// The full-scale, full-duration reproduction lives in cmd/experiments.

import (
	"testing"

	"flexpass/internal/harness"
	"flexpass/internal/metrics"
	"flexpass/internal/sim"
	"flexpass/internal/units"
)

// benchBase is the scaled §6.2 scenario all deployment benches share.
func benchBase() harness.Scenario {
	sc := harness.BaseScenario(false)
	sc.Duration = 5 * sim.Millisecond
	sc.Drain = 50 * sim.Millisecond
	return sc
}

func reportTail(b *testing.B, pts []harness.DeploymentPoint) {
	for _, p := range pts {
		if p.Scheme == harness.SchemeFlexPass && p.Deployment == 1.0 {
			b.ReportMetric(p.P99Small.Micros(), "p99small-us")
			b.ReportMetric(p.AvgAll.Micros(), "avgFCT-us")
		}
	}
}

func BenchmarkFig01ExpressPassVsDCTCP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := harness.Fig1a(1, 40*sim.Millisecond)
		xp := mean(s.Series["ExpressPass"])
		dc := mean(s.Series["DCTCP"])
		b.ReportMetric(xp.Gbits(), "xpass-gbps")
		b.ReportMetric(dc.Gbits(), "dctcp-gbps")
	}
}

func BenchmarkFig01HomaVsDCTCP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := harness.Fig1b(1, 30*sim.Millisecond)
		b.ReportMetric(mean(s.Series["HOMA"]).Gbits(), "homa-gbps")
		b.ReportMetric(mean(s.Series["DCTCP"]).Gbits(), "dctcp-gbps")
	}
}

func BenchmarkFig05SplittingAblation(b *testing.B) {
	base := benchBase()
	for i := 0; i < b.N; i++ {
		pts := harness.Sweep(base, []harness.Scheme{harness.SchemeFlexPass, harness.SchemeFlexPassRC3}, []float64{0.5})
		for _, p := range pts {
			if p.Scheme == harness.SchemeFlexPassRC3 {
				b.ReportMetric(p.AvgReorderKB, "rc3-reorder-kb")
			} else {
				b.ReportMetric(p.AvgReorderKB, "flexpass-reorder-kb")
			}
		}
	}
}

func BenchmarkFig05AltQueueing(b *testing.B) {
	base := benchBase()
	for i := 0; i < b.N; i++ {
		pts := harness.Sweep(base, []harness.Scheme{harness.SchemeFlexPass, harness.SchemeFlexPassAltQ}, []float64{0.5})
		for _, p := range pts {
			if p.Scheme == harness.SchemeFlexPassAltQ {
				b.ReportMetric(p.P99Small.Micros(), "altq-p99small-us")
			} else {
				b.ReportMetric(p.P99Small.Micros(), "flexpass-p99small-us")
			}
		}
	}
}

func BenchmarkFig07SubflowShares(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := harness.Fig7("a", 1, 30*sim.Millisecond)
		b.ReportMetric(mean(s.Series["Proactive"]).Gbits(), "proactive-gbps")
		b.ReportMetric(mean(s.Series["Reactive"]).Gbits(), "reactive-gbps")
	}
}

func BenchmarkFig08Incast(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := harness.Fig8([]int{64}, []int64{1})
		for _, r := range rows {
			switch r.Transport {
			case "dctcp":
				b.ReportMetric(r.MaxFCT.Millis(), "dctcp-maxfct-ms")
				b.ReportMetric(float64(r.Timeouts), "dctcp-timeouts")
			case "flexpass":
				b.ReportMetric(r.MaxFCT.Millis(), "flexpass-maxfct-ms")
				b.ReportMetric(float64(r.Timeouts), "flexpass-timeouts")
			}
		}
	}
}

func BenchmarkFig09Starvation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.Fig9(1, 50*sim.Millisecond)
		b.ReportMetric(r.StarvedExpressPassSide, "xpass-starved-frac")
		b.ReportMetric(r.StarvedFlexPassSide, "flexpass-starved-frac")
	}
}

func BenchmarkFig10Deployment(b *testing.B) {
	base := benchBase()
	for i := 0; i < b.N; i++ {
		pts := harness.Sweep(base, harness.Schemes, []float64{0, 0.5, 1.0})
		reportTail(b, pts)
	}
}

func BenchmarkFig11MixedTraffic(b *testing.B) {
	base := benchBase()
	base.IncastFraction = 0.1
	for i := 0; i < b.N; i++ {
		pts := harness.Sweep(base, []harness.Scheme{harness.SchemeNaive, harness.SchemeFlexPass}, []float64{0.5})
		for _, p := range pts {
			b.ReportMetric(p.P99Small.Micros(), string(p.Scheme)+"-p99small-us")
		}
	}
}

func BenchmarkFig12PerTypeTail(b *testing.B) {
	base := benchBase()
	for i := 0; i < b.N; i++ {
		pts := harness.Sweep(base, []harness.Scheme{harness.SchemeFlexPass}, []float64{0.5})
		b.ReportMetric(pts[0].P99SmallLegacy.Micros(), "legacy-p99-us")
		b.ReportMetric(pts[0].P99SmallNew.Micros(), "new-p99-us")
	}
}

func BenchmarkFig13PerTypeStddev(b *testing.B) {
	base := benchBase()
	for i := 0; i < b.N; i++ {
		pts := harness.Sweep(base, []harness.Scheme{harness.SchemeFlexPass}, []float64{0.5})
		b.ReportMetric(pts[0].StdSmallLegacy.Micros(), "legacy-std-us")
		b.ReportMetric(pts[0].StdSmallNew.Micros(), "new-std-us")
	}
}

func BenchmarkFig14LoadSensitivity(b *testing.B) {
	base := benchBase()
	for i := 0; i < b.N; i++ {
		pts := harness.Fig14(base, []float64{0.4})
		for _, p := range pts {
			if p.Scheme == harness.SchemeFlexPass && p.Deployment == 0.5 {
				b.ReportMetric(p.P99Small.Micros(), "p99small-us")
			}
		}
	}
}

func BenchmarkFig15Workloads(b *testing.B) {
	base := benchBase()
	for i := 0; i < b.N; i++ {
		pts := harness.Fig15and16(base, []string{"hadoop"})
		for _, p := range pts {
			if p.Scheme == harness.SchemeFlexPass && p.Deployment == 1.0 {
				b.ReportMetric(p.P99Small.Micros(), "hadoop-p99small-us")
			}
		}
	}
}

func BenchmarkFig16WorkloadsAvg(b *testing.B) {
	base := benchBase()
	for i := 0; i < b.N; i++ {
		pts := harness.Fig15and16(base, []string{"cachefollower"})
		for _, p := range pts {
			if p.Scheme == harness.SchemeFlexPass && p.Deployment == 1.0 {
				b.ReportMetric(p.AvgAll.Micros(), "cache-avgFCT-us")
			}
		}
	}
}

func BenchmarkFig17DropThreshold(b *testing.B) {
	base := benchBase()
	for i := 0; i < b.N; i++ {
		pts := harness.Fig17(base, []units.ByteSize{50 * units.KB, 150 * units.KB})
		b.ReportMetric(pts[0].P99Small.Micros(), "thr50k-p99-us")
		b.ReportMetric(pts[1].P99Small.Micros(), "thr150k-p99-us")
	}
}

func BenchmarkFig18QueueWeight(b *testing.B) {
	base := benchBase()
	base.Duration = 4 * sim.Millisecond
	for i := 0; i < b.N; i++ {
		rows := harness.Fig18(base, []float64{0.5})
		b.ReportMetric(rows[0].P99SmallFull.Micros(), "wq50-p99full-us")
	}
}

func BenchmarkQueueOccupancy(b *testing.B) {
	base := benchBase()
	base.SampleQueues = true
	base.Deployment = 0.5
	for i := 0; i < b.N; i++ {
		pt := harness.RunPoint(base)
		b.ReportMetric(float64(pt.QueueAvg)/1000, "q1-avg-kb")
		b.ReportMetric(float64(pt.QueueP90)/1000, "q1-p90-kb")
		b.ReportMetric(pt.RedundantFrac, "redundant-frac")
	}
}

// BenchmarkAblations runs the design-choice ablations DESIGN.md calls
// out (proactive retransmission off, Reno reactive, RC3 splitting,
// alternative queueing) and reports each variant's small-flow tail.
func BenchmarkAblations(b *testing.B) {
	base := benchBase()
	for i := 0; i < b.N; i++ {
		rows := harness.Ablations(base)
		for _, r := range rows {
			b.ReportMetric(r.Point.P99Small.Micros(), r.Name+"-p99-us")
		}
	}
}

// BenchmarkEngineThroughput measures raw simulator speed (events/sec) on
// a saturated fabric — the substrate's own performance number. The rate
// comes straight from the run's telemetry-grade self-report (wall-clock
// and event count measured inside harness.Run).
func BenchmarkEngineThroughput(b *testing.B) {
	var events, perSec float64
	for i := 0; i < b.N; i++ {
		sc := benchBase()
		sc.Duration = 3 * sim.Millisecond
		sc.Drain = 20 * sim.Millisecond
		res := harness.Run(sc)
		events += float64(res.Events)
		if secs := res.WallClock.Seconds(); secs > 0 {
			perSec += float64(res.Events) / secs
		}
	}
	b.ReportMetric(events/float64(b.N), "events")
	b.ReportMetric(perSec/float64(b.N), "events/sec")
}

func mean(rs []units.Rate) units.Rate {
	if len(rs) == 0 {
		return 0
	}
	var sum int64
	for _, r := range rs {
		sum += int64(r)
	}
	return units.Rate(sum / int64(len(rs)))
}

// TestPublicAPITestbed exercises the façade end to end.
func TestPublicAPITestbed(t *testing.T) {
	tb := NewTestbed(TestbedConfig{Hosts: 3, LinkRate: 10 * Gbps})
	fp := tb.StartFlow("flexpass", 0, 2, 10_000_000)
	dc := tb.StartFlow("dctcp", 1, 2, 10_000_000)
	tb.Run(100 * Millisecond)
	if !fp.Completed || !dc.Completed {
		t.Fatalf("completion: flexpass=%v dctcp=%v", fp.Completed, dc.Completed)
	}
	if fp.Timeouts+dc.Timeouts != 0 {
		t.Fatalf("timeouts: %d", fp.Timeouts+dc.Timeouts)
	}
	if len(tb.Flows()) != 2 {
		t.Fatalf("flow registry: %d", len(tb.Flows()))
	}
}

func TestPublicAPIScheduledStart(t *testing.T) {
	tb := NewTestbed(TestbedConfig{Hosts: 2})
	fl := tb.StartFlowAt(5*Millisecond, "expresspass", 0, 1, 1_000_000)
	tb.Run(50 * Millisecond)
	if !fl.Completed {
		t.Fatal("scheduled flow did not complete")
	}
	if fl.Start != 5*Millisecond {
		t.Fatalf("start = %v", fl.Start)
	}
	if fl.FCT() > 10*Millisecond {
		t.Fatalf("fct = %v", fl.FCT())
	}
}

func TestPublicAPIScenario(t *testing.T) {
	sc := NewScenario(false)
	sc.Duration = 2 * Millisecond
	res := Run(sc)
	if len(res.Flows.Records) == 0 {
		t.Fatal("no flows")
	}
	if n := metrics.Summarize(res.Flows.Records).Incomplete(); n != 0 {
		t.Fatalf("%d incomplete", n)
	}
}

func TestPublicAPIAllTransports(t *testing.T) {
	for _, tp := range []string{"flexpass", "dctcp", "expresspass", "layering", "homa", "phost"} {
		tb := NewTestbed(TestbedConfig{Hosts: 2})
		fl := tb.StartFlow(tp, 0, 1, 500_000)
		tb.Run(100 * Millisecond)
		if !fl.Completed {
			t.Fatalf("%s flow did not complete", tp)
		}
	}
}

var _ = metrics.FlowRecord{} // keep the façade's metrics re-export honest
