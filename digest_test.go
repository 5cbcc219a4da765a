package flexpass

import (
	"fmt"
	"testing"

	"flexpass/internal/harness"
	"flexpass/internal/metrics"
	"flexpass/internal/obs"
	"flexpass/internal/topo"
)

var goldenTransports = []string{"flexpass", "expresspass", "dctcp", "homa", "phost", "mixed"}

// runGoldenScenario runs the testbed golden scenario — an incast into
// host 4, a reverse bulk flow and staggered short flows, seven flows on
// one transport ("mixed" runs FlexPass, DCTCP and ExpressPass side by
// side) — for 200 ms, by which every flow must have completed. start
// schedules a flow on the run under test; the harness golden table's
// testbed/<transport> rows pin the same seven flows (testbedRun).
func runGoldenScenario(t *testing.T, transport string, start func(at Time, tp string, src, dst int, size int64)) {
	t.Helper()
	for i, f := range []struct {
		at       Time
		src, dst int
		size     int64
	}{
		{0, 0, 4, 2_000_000},
		{0, 4, 0, 500_000},
		{100 * Microsecond, 1, 4, 150_000},
		{120 * Microsecond, 2, 4, 30_000},
		{130 * Microsecond, 3, 4, 8_000},
		{200 * Microsecond, 1, 2, 1_460},
		{2 * Millisecond, 0, 4, 64_000},
	} {
		tp := transport
		if tp == "mixed" {
			tp = []string{"flexpass", "dctcp", "expresspass"}[i%3]
		}
		start(f.at, tp, f.src, f.dst, f.size)
	}
}

// goldenTestbed is the golden scenario on a testbed as NewTestbed builds
// it; prepare, when non-nil, adjusts the fabric before any flow starts.
func goldenTestbed(t *testing.T, transport string, prepare func(*Testbed)) *harness.Result {
	t.Helper()
	tb := NewTestbed(TestbedConfig{Hosts: 5, LinkRate: 10 * Gbps, Seed: 7})
	if prepare != nil {
		prepare(tb)
	}
	runGoldenScenario(t, transport, func(at Time, tp string, src, dst int, size int64) {
		tb.StartFlowAt(at, tp, src, dst, size)
	})
	tb.Run(200 * Millisecond)
	return complete(t, transport, tb.s.Close())
}

// complete returns res, failing t if any of its flows did not finish.
func complete(t *testing.T, transport string, res *harness.Result) *harness.Result {
	t.Helper()
	if n := metrics.Summarize(res.Flows.Records).Incomplete(); n != 0 {
		t.Fatalf("%s: %d of %d golden flows incomplete", transport, n, len(res.Flows.Records))
	}
	return res
}

// runsDiff names the first difference between two runs — a flow record
// field (metrics.RecordsDiff) or the drop totals — or is "".
func runsDiff(got, want *harness.Result) string {
	if d := metrics.RecordsDiff(got.Flows.Records, want.Flows.Records); d != "" {
		return d
	}
	if g, w := [3]int64{got.DropsRed, got.DropsCredit, got.DropsOther}, [3]int64{want.DropsRed, want.DropsCredit, want.DropsOther}; g != w {
		return fmt.Sprintf("drops (red, credit, other) %v, want %v", g, w)
	}
	return ""
}

// TestGoldenDigest holds the façade to the golden table: NewTestbed's
// run of the golden scenario must give, record for record, the flows of
// the harness session the table's testbed/<transport> row pins —
// TestbedScenario on the 5-host single switch at seed 7. A façade
// default that drifts from TestbedScenario (link rate, queue weight,
// switch thresholds) fails here, naming the first record and field.
func TestGoldenDigest(t *testing.T) {
	for _, tp := range goldenTransports {
		t.Run(tp, func(t *testing.T) {
			got := goldenTestbed(t, tp, nil)
			sc := harness.TestbedScenario(topo.SingleSwitchLayout{N: 5})
			sc.Seed = 7
			s := harness.Open(sc)
			runGoldenScenario(t, tp, func(at Time, name string, src, dst int, size int64) {
				s.StartFlow(at, name, src, dst, size)
			})
			s.Run(200 * Millisecond)
			want := complete(t, tp, s.Close())
			if d := runsDiff(got, want); d != "" {
				t.Fatalf("NewTestbed vs the harness session: %s", d)
			}
			t.Logf("%s: obs.FlowsDigest %s", tp, obs.FlowsDigest(got.Flows.Records))
		})
	}
}

// TestGoldenDigestPooled proves packet recycling is invisible to results,
// with the heap as the reference: every golden scenario is run again on a
// testbed whose free lists were stripped from every node (each frame is
// then a fresh heap object nobody reuses) and must give the same flows.
// A transport that retains a *Packet past its handler reads a recycled
// frame in the pooled run only, and fails here.
func TestGoldenDigestPooled(t *testing.T) {
	stripPools := func(tb *Testbed) {
		for _, sw := range tb.Fabric.Net.Switches {
			sw.SetPool(nil)
		}
		for _, h := range tb.Fabric.Net.Hosts {
			h.SetPool(nil)
		}
	}
	for _, tp := range goldenTransports {
		t.Run(tp, func(t *testing.T) {
			pooled := goldenTestbed(t, tp, nil)
			if d := runsDiff(goldenTestbed(t, tp, stripPools), pooled); d != "" {
				t.Fatalf("pools stripped: %s", d)
			}
		})
	}
}
