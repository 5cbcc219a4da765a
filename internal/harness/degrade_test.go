package harness

import (
	"bytes"
	"encoding/json"
	"testing"

	"flexpass/internal/faults"
	"flexpass/internal/obs"
	"flexpass/internal/sim"
	"flexpass/internal/topo"
	"flexpass/internal/transport/schemes"
	"flexpass/internal/units"
	"flexpass/internal/workload"
)

// flapPlan is the canonical flap-and-recover micro-plan for the
// faultScenario fabric: a 1ms blackhole on one ToR downlink,
// then 2ms of Gilbert–Elliott burst loss on the pod-0 ToR uplink.
func flapPlan(t *testing.T) *faults.Plan {
	t.Helper()
	p, err := faults.ParseSpec(
		"down@tor0.0->h0.0.0@2ms-3ms,burst@tor0.0<->agg0.0:fwd@4ms-6ms@1.0@8@200")
	if err != nil {
		t.Fatal(err)
	}
	p.Name = "flap-and-recover"
	return p
}

// faultScenario is a small mixed-deployment fabric, two racks of four
// hosts at 50% deployment, with a pinned trace instead of a random
// workload, so traffic is guaranteed to cross both faulted links inside
// their windows regardless of scheme: hosts 0–3 hang off
// tor0.0 (so flows to host 0 ride "tor0.0->h0.0.0" through the 2–3ms
// blackhole) and hosts 4–7 off tor1.0 (so pod-0-sourced inter-pod flows
// ride "tor0.0<->agg0.0:fwd" through the 4–6ms burst window). The drain
// is long enough for RTO-backoff chains (MinRTO 4ms, doubling) to
// finish.
func faultScenario(scheme Scheme) Scenario {
	sc := Scenario{
		Seed:       7,
		Clos:       topo.ClosParams{Pods: 2, AggPerPod: 1, TorPerPod: 1, HostsPerTor: 4, Cores: 1},
		LinkRate:   10 * units.Gbps,
		LinkDelay:  2 * sim.Microsecond,
		HostDelay:  sim.Microsecond,
		SwitchBuf:  1000 * units.KB,
		BufAlpha:   0.25,
		Scheme:     scheme,
		WQ:         0.5,
		Workload:   workload.WebSearch,
		Load:       0.7,
		Deployment: 0.5,
		Duration:   8 * sim.Millisecond,
		Drain:      300 * sim.Millisecond,
	}
	sc.TraceFlows = []workload.FlowSpec{
		{Src: 4, Dst: 0, Size: 3_000_000, At: 500 * sim.Microsecond}, // spans the blackhole
		{Src: 7, Dst: 3, Size: 500_000, At: 500 * sim.Microsecond},
		{Src: 6, Dst: 2, Size: 1_000_000, At: sim.Millisecond},        // reverse uplink, untouched
		{Src: 5, Dst: 0, Size: 500_000, At: 2200 * sim.Microsecond},   // starts inside the blackhole
		{Src: 0, Dst: 4, Size: 800_000, At: 2500 * sim.Microsecond},   // returning acks/credits blackholed
		{Src: 1, Dst: 2, Size: 300_000, At: 2500 * sim.Microsecond},   // intra-rack control
		{Src: 1, Dst: 5, Size: 3_000_000, At: 3500 * sim.Microsecond}, // spans the burst window
		{Src: 2, Dst: 6, Size: 400_000, At: 4500 * sim.Microsecond},   // starts inside the burst
		{Src: 5, Dst: 1, Size: 600_000, At: 5 * sim.Millisecond},
		{Src: 3, Dst: 7, Size: 500_000, At: 7 * sim.Millisecond}, // recovery phase
	}
	return sc
}

// TestFlapAndRecoverAllSchemes runs the flap-and-recover plan under
// every registered scheme and asserts graceful degradation: faults were
// actually injected, every flow still completes inside the generous
// drain, and the stray-packet / RTO counters stay bounded.
func TestFlapAndRecoverAllSchemes(t *testing.T) {
	for _, name := range schemes.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			sc := faultScenario(Scheme(name))
			sc.FaultPlan = flapPlan(t)
			sc.Telemetry = &obs.Options{}
			res := Run(sc)

			if res.FaultDrops.Injected == 0 {
				t.Fatal("plan injected no drops; fault window missed all traffic")
			}
			if res.FaultDrops.LinkDown == 0 {
				t.Error("no link-down drops despite a 1ms blackhole")
			}
			if n := len(res.Flows.Records); n == 0 {
				t.Fatal("scenario generated no flows")
			}
			for _, r := range res.Flows.Records {
				if !r.Completed {
					t.Errorf("flow %d (%s, %dB, start %v) never completed", r.ID, r.Transport, r.Size, r.Start)
				}
				if r.Timeouts > 10 {
					t.Errorf("flow %d took %d RTOs; backoff not converging", r.ID, r.Timeouts)
				}
			}
			// Strays (deliveries for flows the agent no longer tracks) can
			// happen when a blackholed-then-retransmitted segment races the
			// original, but must stay marginal.
			for _, c := range res.Telemetry.Counters {
				if c.Entity == "transport/agent" && c.Metric == "stray_packets" && c.Value > 200 {
					t.Errorf("stray_packets = %d; fault recovery is leaking packets", c.Value)
				}
			}
			// The per-cause port counters ride in the artifact and must
			// agree with the run totals.
			var linkDown int64
			for _, c := range res.Telemetry.Counters {
				if c.Metric == "faults_link_down" {
					linkDown += c.Value
				}
			}
			if linkDown != res.FaultDrops.LinkDown {
				t.Errorf("registry faults_link_down sums to %d, run counted %d", linkDown, res.FaultDrops.LinkDown)
			}
		})
	}
}

// TestFlapAndRecoverShardedSchemes re-runs the flap-and-recover table
// on the two-shard parallel engine: faults still inject, every flow
// still completes, and the fired fault-action log is identical to the
// single-engine run — fault application is partitioned across shard
// engines but the plan's schedule is position-independent. (The name
// carries "Sharded" so the race-detector shard suite picks it up.)
func TestFlapAndRecoverShardedSchemes(t *testing.T) {
	for _, name := range schemes.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			run := func(shards int) *Result {
				sc := faultScenario(Scheme(name))
				sc.FaultPlan = flapPlan(t)
				sc.Shards = shards
				return Run(sc)
			}
			single, sharded := run(1), run(2)

			if sharded.FaultDrops.Injected == 0 {
				t.Fatal("sharded run injected no drops; fault window missed all traffic")
			}
			for _, r := range sharded.Flows.Records {
				if !r.Completed {
					t.Errorf("flow %d (%s, %dB, start %v) never completed under shards=2",
						r.ID, r.Transport, r.Size, r.Start)
				}
			}
			if len(single.Flows.Records) != len(sharded.Flows.Records) {
				t.Errorf("flow counts diverged: %d single vs %d sharded",
					len(single.Flows.Records), len(sharded.Flows.Records))
			}
			a1, a2 := single.Faults.Export(), sharded.Faults.Export()
			if len(a1) != len(a2) {
				t.Fatalf("fault logs diverged: %d actions single vs %d sharded", len(a1), len(a2))
			}
			for i := range a1 {
				if a1[i] != a2[i] {
					t.Fatalf("fault action %d diverged: single %+v vs sharded %+v", i, a1[i], a2[i])
				}
			}
		})
	}
}

// TestFaultedDigestDeterminism: same seed + same plan ⇒ bit-identical
// flows, with at least one LinkDown/LinkUp flap and one
// BurstLoss interval in effect (the determinism contract of the fault
// subsystem).
func TestFaultedDigestDeterminism(t *testing.T) {
	run := func() *Result {
		sc := faultScenario(SchemeFlexPass)
		sc.FaultPlan = flapPlan(t)
		return Run(sc)
	}
	res1, res2 := run(), run()
	sameFlows(t, "faulted run twice", res2, res1)
	if res1.FaultDrops.LinkDown == 0 || res1.FaultDrops.BurstLoss == 0 {
		t.Fatalf("plan must exercise both mechanisms: %+v", res1.FaultDrops)
	}
	if res1.FaultDrops != res2.FaultDrops {
		t.Fatalf("fault accounting diverged: %+v vs %+v", res1.FaultDrops, res2.FaultDrops)
	}
	// The action logs replay identically too.
	acts1, acts2 := res1.Faults.Export(), res2.Faults.Export()
	if len(acts1) != len(acts2) {
		t.Fatalf("action logs diverged: %d vs %d", len(acts1), len(acts2))
	}
	for i := range acts1 {
		if acts1[i] != acts2[i] {
			t.Fatalf("action %d diverged: %+v vs %+v", i, acts1[i], acts2[i])
		}
	}
	// And the clean run differs — the faults are actually in the flows.
	if flowsDiff(Run(faultScenario(SchemeFlexPass)), res1) == "" {
		t.Fatal("faulted flows equal the clean run's; plan had no effect")
	}
}

// TestFaultArtifactLines: applied fault actions ride the JSONL artifact
// as "fault" lines and survive a write/read round trip alongside the
// forensics plane (which records the fault drops hop-by-hop).
func TestFaultArtifactLines(t *testing.T) {
	sc := faultScenario(SchemeFlexPass)
	sc.FaultPlan = flapPlan(t)
	sc.Telemetry = &obs.Options{}
	res := Run(sc)

	if len(res.Telemetry.Faults) != res.Faults.Len() {
		t.Fatalf("artifact carries %d fault lines, run fired %d actions",
			len(res.Telemetry.Faults), res.Faults.Len())
	}
	var buf bytes.Buffer
	if err := res.Telemetry.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := obs.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Faults) != len(res.Telemetry.Faults) {
		t.Fatalf("round trip kept %d/%d fault lines", len(back.Faults), len(res.Telemetry.Faults))
	}
	kinds := map[string]bool{}
	for _, f := range back.Faults {
		kinds[f.Kind] = true
		if f.Link == "" || f.AtPs < 0 {
			t.Fatalf("malformed fault line %+v", f)
		}
	}
	for _, want := range []string{"link-down", "link-up", "burst-loss"} {
		if !kinds[want] {
			t.Fatalf("artifact lacks a %q fault line: %v", want, kinds)
		}
	}
}

// TestScenarioFaultPlanJSONRoundTrip: a Scenario carrying a fault plan
// still encodes to JSON (the harness scenario is part of exported run
// manifests and test fixtures).
func TestScenarioFaultPlanJSONRoundTrip(t *testing.T) {
	plan, err := faults.ParsePlan([]byte(
		`{"name":"rt","events":[{"kind":"credit-loss","link":"*","at":"1ms","end":"2ms","rate":0.25}]}`))
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenario{
		Seed:      3,
		Clos:      topo.ClosParams{Pods: 2, AggPerPod: 1, TorPerPod: 1, HostsPerTor: 2, Cores: 1},
		LinkRate:  10 * units.Gbps,
		Workload:  workload.WebSearch,
		FaultPlan: plan,
	}
	blob, err := json.Marshal(sc.FaultPlan)
	if err != nil {
		t.Fatal(err)
	}
	out, err := faults.ParsePlan(blob)
	if err != nil {
		t.Fatalf("plan did not survive the round trip: %v", err)
	}
	if out.Events[0].Rate != 0.25 || out.Name != "rt" {
		t.Fatalf("round trip lost data: %+v", out)
	}
}
