package flexpass

import (
	"testing"

	"flexpass/internal/metrics"
)

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
