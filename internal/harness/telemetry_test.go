package harness

import (
	"path/filepath"
	"testing"

	"flexpass/internal/obs"
	"flexpass/internal/sim"
	"flexpass/internal/topo"
	"flexpass/internal/transport"
	"flexpass/internal/units"
	"flexpass/internal/workload"
)

func telemetryScenario() Scenario {
	return Scenario{
		Seed:         7,
		Clos:         topo.ClosParams{Pods: 2, AggPerPod: 1, TorPerPod: 1, HostsPerTor: 3, Cores: 1},
		LinkRate:     10 * units.Gbps,
		LinkDelay:    2 * sim.Microsecond,
		HostDelay:    sim.Microsecond,
		SwitchBuf:    1000 * units.KB,
		BufAlpha:     0.25,
		Scheme:       SchemeFlexPass,
		WQ:           0.5,
		Workload:     workload.WebSearch,
		Load:         0.4,
		Deployment:   1.0,
		Duration:     2 * sim.Millisecond,
		Drain:        10 * sim.Millisecond,
		SampleQueues: true,
		Telemetry:    &obs.Options{TraceCap: 1024},
	}
}

// TestTelemetryRunArtifact is the tentpole's acceptance test: a telemetry
// run yields a manifest, queue-occupancy and throughput series, final
// counters, trace events — and the artifact round-trips through JSONL.
func TestTelemetryRunArtifact(t *testing.T) {
	res := Run(telemetryScenario())
	run := res.Telemetry
	if run == nil {
		t.Fatal("telemetry enabled but Result.Telemetry is nil")
	}

	m := run.Manifest
	if m.Schema != obs.SchemaVersion || m.Seed != 7 || m.Scheme != "flexpass" ||
		m.Workload != "websearch" || m.DurationPs != int64(12*sim.Millisecond) {
		t.Fatalf("manifest wrong: %+v", m)
	}
	if m.Events == 0 || m.EventsPerSec <= 0 || m.WallMS <= 0 {
		t.Fatalf("manifest perf self-report missing: %+v", m)
	}
	if m.Config["link_rate"] == "" || m.Config["probe_interval"] == "" {
		t.Fatalf("manifest config missing: %+v", m.Config)
	}

	// Queue-occupancy series (instant) and port throughput series (delta)
	// — the ingredients of the paper's Fig. 6-style timeline.
	var sawQueue, sawTx bool
	for _, s := range run.Series {
		if s.Metric == "bytes" && s.Kind == "instant" && s.Values.Len() > 0 {
			sawQueue = true
		}
		if s.Metric == "tx_bytes" && s.Kind == "delta" && s.Values.Len() > 0 {
			sawTx = true
		}
	}
	if !sawQueue || !sawTx {
		t.Fatalf("missing series: queue=%v tx=%v (have %d series)", sawQueue, sawTx, len(run.Series))
	}

	// Per-transport counters: flexpass flows ran, so its counters moved.
	started := false
	for _, c := range run.Counters {
		if c.Entity == "transport/flexpass" && c.Metric == "flows_started" && c.Value > 0 {
			started = true
		}
	}
	if !started {
		t.Fatal("transport/flexpass flows_started counter did not move")
	}
	if len(run.Trace) == 0 {
		t.Fatal("trace ring attached but no events exported")
	}
	if res.Trace == nil || res.Trace.Len() == 0 {
		t.Fatal("Result.Trace missing")
	}

	if res.QueueAvg < 0 || res.QueueP90 < res.QueueAvg {
		t.Fatalf("queue stats look wrong: avg=%d p90=%d", res.QueueAvg, res.QueueP90)
	}

	// Round-trip through a file.
	path := filepath.Join(t.TempDir(), "run.jsonl")
	if err := run.WriteJSONLFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := obs.ReadJSONLFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Manifest.Seed != run.Manifest.Seed || got.Manifest.Events != run.Manifest.Events ||
		got.Manifest.Config["link_rate"] != run.Manifest.Config["link_rate"] {
		t.Fatalf("manifest did not round-trip: %+v", got.Manifest)
	}
	if len(got.Series) != len(run.Series) || len(got.Counters) != len(run.Counters) ||
		len(got.Hists) != len(run.Hists) || len(got.Trace) != len(run.Trace) {
		t.Fatal("artifact shape changed across round trip")
	}
}

// TestTelemetryDoesNotPerturb verifies the observation-only claim: the
// same scenario with and without telemetry produces identical flow
// results (probe events only read state) and identical Q1 occupancy
// statistics — also under a series cap far below the run's tick count,
// which must bound the artifact's series and nothing else.
func TestTelemetryDoesNotPerturb(t *testing.T) {
	sc := telemetryScenario()
	// Small flows at high load, so the ToR uplinks' Q1 is occupied (and
	// holds red bytes) while flows arrive — the samples a 16-entry series
	// has long dropped by the end of the drain.
	sc.Workload, sc.Load = workload.CacheFollower, 0.8
	sc.Telemetry = nil
	without := Run(sc)
	if without.QueueAvg == 0 || without.QueueP90 == 0 || without.QueueRedAvg == 0 {
		t.Fatalf("Q1 barely occupied (avg %d, p90 %d, red avg %d): the comparison below would be vacuous",
			without.QueueAvg, without.QueueP90, without.QueueRedAvg)
	}

	for _, row := range []struct {
		name string
		tel  obs.Options
	}{
		{"default", obs.Options{TraceCap: 1024}},
		{"cap16", obs.Options{SeriesCap: 16}},
	} {
		name := row.name
		sc.Telemetry = &row.tel
		withTel := Run(sc)
		sameFlows(t, name+" telemetry vs plain", withTel, without)
		if withTel.QueueAvg != without.QueueAvg || withTel.QueueP90 != without.QueueP90 ||
			withTel.QueueRedAvg != without.QueueRedAvg || withTel.QueueRedP90 != without.QueueRedP90 {
			t.Fatalf("%s: Q1 occupancy diverged under telemetry: avg %d p90 %d red %d/%d vs plain avg %d p90 %d red %d/%d",
				name, withTel.QueueAvg, withTel.QueueP90, withTel.QueueRedAvg, withTel.QueueRedP90,
				without.QueueAvg, without.QueueP90, without.QueueRedAvg, without.QueueRedP90)
		}
	}
}

// TestEventsPerHopBudget pins the engine's event cost per packet-hop the
// way the alloc budgets pin allocations: every hop needs its delivery
// event, but a tx-done event only where a frame queued behind another
// (netem.Port), so a lightly loaded fabric runs well under two events per
// hop even with the observers' tickers counted in (1.46 here — 1.39 before
// this scenario's Q1 sampling got a prober of its own, 120 ticks beside
// the telemetry plane's; 2.32 when tx-done was unconditional).
func TestEventsPerHopBudget(t *testing.T) {
	res := Run(telemetryScenario())
	var hops int64
	for _, c := range res.Telemetry.Counters {
		if c.Metric == "tx_packets" {
			hops += c.Value
		}
	}
	if hops == 0 {
		t.Fatal("no port tx_packets counters in the artifact")
	}
	if perHop := float64(res.Events) / float64(hops); perHop > 1.7 {
		t.Fatalf("%d events over %d packet-hops = %.2f events/hop, budget 1.7", res.Events, hops, perHop)
	}
}

// TestFlowRecordsSumToCounters: the per-flow outcome in the flow lines
// and the per-transport counters are two books of one run. For each
// transport label, the flow records' timeouts, retransmits, granted and
// wasted credits and delivered bytes sum to the artifact's
// transport/<label> counters, on a two-shard Clos at full deployment with
// a heavy incast, where ExpressPass wastes credits. A transport that
// bills one book and not the other fails here.
func TestFlowRecordsSumToCounters(t *testing.T) {
	for _, scheme := range []Scheme{Scheme(transport.SchemeExpressPass), SchemeLayering, SchemeFlexPass, Scheme(transport.SchemePHost)} {
		t.Run(string(scheme), func(t *testing.T) {
			sc := shardScenario(scheme, 2)
			sc.Deployment, sc.Load, sc.IncastFraction = 1, 0.7, 0.3
			sc.Telemetry = &obs.Options{}
			res := Run(sc)
			sums := map[string]map[string]int64{}
			for _, r := range res.Flows.Records {
				s := sums[r.Transport]
				if s == nil {
					s = map[string]int64{}
					sums[r.Transport] = s
				}
				s["timeouts"] += int64(r.Timeouts)
				s["retransmits"] += int64(r.Retransmits)
				s["credits_granted"] += int64(r.CreditsGranted)
				s["credits_wasted"] += int64(r.CreditsWasted)
				s["rx_bytes"] += r.RxBytes
			}
			counters := map[string]int64{}
			for _, c := range res.Telemetry.Counters {
				counters[c.Entity+":"+c.Metric] = c.Value
			}
			for label, s := range sums {
				for metric, want := range s {
					if got := counters["transport/"+label+":"+metric]; got != want {
						t.Errorf("transport/%s %s = %d, flow records sum to %d", label, metric, got, want)
					}
				}
			}
			if scheme == Scheme(transport.SchemeExpressPass) && sums[transport.SchemeExpressPass]["credits_wasted"] == 0 {
				t.Fatal("ExpressPass wasted no credits: the scenario no longer exercises credits_wasted")
			}
		})
	}
}
