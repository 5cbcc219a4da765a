package flexpass

// One benchmark per testbed figure. Each bench runs the corresponding
// harness driver and reports the figure's headline numbers as custom
// metrics (ms, Gbps, fractions). The deployment figures are farm sweeps
// (ci/figures/), checked by `make figs-check` and TestFigureShapes.

import (
	"testing"

	"flexpass/internal/harness"
	"flexpass/internal/metrics"
	"flexpass/internal/sim"
	"flexpass/internal/units"
)

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

// BenchmarkEngineThroughput measures raw simulator speed (events/sec) on
// a saturated fabric — the substrate's own performance number. The rate
// comes straight from the run's telemetry-grade self-report (wall-clock
// and event count measured inside harness.Run).
func BenchmarkEngineThroughput(b *testing.B) {
	var events, perSec float64
	for i := 0; i < b.N; i++ {
		sc := harness.BaseScenario(false)
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
