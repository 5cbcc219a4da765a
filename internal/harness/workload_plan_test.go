package harness

import (
	"path/filepath"
	"testing"

	"flexpass/internal/lake"
	"flexpass/internal/obs"
	"flexpass/internal/sim"
	"flexpass/internal/topo"
	"flexpass/internal/transport"
	"flexpass/internal/units"
	"flexpass/internal/workload"
)

func planScenario() Scenario {
	return Scenario{
		Seed:       7,
		Clos:       topo.ClosParams{Pods: 2, AggPerPod: 1, TorPerPod: 1, HostsPerTor: 3, Cores: 1},
		LinkRate:   10 * units.Gbps,
		LinkDelay:  2 * sim.Microsecond,
		HostDelay:  sim.Microsecond,
		SwitchBuf:  1000 * units.KB,
		BufAlpha:   0.25,
		Scheme:     SchemeFlexPass,
		WQ:         0.5,
		Workload:   workload.WebSearch,
		Load:       0.4,
		Deployment: 1.0,
		Duration:   2 * sim.Millisecond,
		Drain:      20 * sim.Millisecond,
	}
}

func parsePlanOrDie(t *testing.T, js string) *workload.Plan {
	t.Helper()
	p, err := workload.ParsePlan([]byte(js))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// An explicit plan spelling out the legacy parameter workload must
// reproduce the legacy run bit for bit — the JSON-level version of the
// golden-digest gate, including the incast mix.
func TestWorkloadPlanLegacyEquivalence(t *testing.T) {
	legacy := planScenario()
	legacy.IncastFraction = 0.1
	legacy.IncastFlowSize = 8000
	want := recordsDigest(Run(legacy))

	planned := planScenario()
	planned.Workload = nil
	planned.WorkloadPlan = parsePlanOrDie(t, `{"name":"legacy-spelled-out","sources":[
		{"kind":"poisson","cdf":"websearch"},
		{"kind":"incast","fraction":0.1,"flow_size":8000}
	]}`)
	if got := recordsDigest(Run(planned)); got != want {
		t.Fatalf("plan-driven run diverged from the legacy path: %s vs %s", got, want)
	}
}

// A plan-driven telemetry run lands the plan identity in the manifest,
// per-tenant and coflow counters in the artifact, and — after ingest —
// the new workload columns in a lake row.
func TestWorkloadPlanArtifactAndLakeRow(t *testing.T) {
	sc := planScenario()
	sc.Workload = nil
	sc.WorkloadPlan = parsePlanOrDie(t, `{"name":"mix","sources":[
		{"kind":"poisson","tenant":"bg","cdf":"websearch","load":0.3},
		{"kind":"rpc","tenant":"rpc","fanout":3,"request_size":2000,"response_size":20000,"load":0.05}
	]}`)
	sc.Telemetry = &obs.Options{}
	res := Run(sc)
	run := res.Telemetry
	if run == nil {
		t.Fatal("telemetry enabled but Result.Telemetry is nil")
	}

	m := run.Manifest
	if m.Workload != "mix" || m.WorkloadPlan != "mix" {
		t.Fatalf("manifest workload identity wrong: %+v", m)
	}
	if m.WorkloadPlanHash != sc.WorkloadPlan.Hash() || m.WorkloadPlanHash == "" {
		t.Fatalf("manifest plan hash %q, want %q", m.WorkloadPlanHash, sc.WorkloadPlan.Hash())
	}

	counters := map[string]int64{}
	for _, c := range run.Counters {
		counters[c.Entity+"/"+c.Metric] = c.Value
	}
	if counters["workload/tenant/bg/flows"] == 0 || counters["workload/tenant/rpc/flows"] == 0 {
		t.Fatalf("per-tenant flow counters missing: %v", counters)
	}
	if counters["workload/tenant/bg/bytes"] == 0 {
		t.Fatal("per-tenant byte counter missing")
	}
	if counters["workload/coflow/coflows"] == 0 {
		t.Fatal("coflow counter missing")
	}
	if done := counters["workload/coflow/coflows_done"]; done == 0 || done > counters["workload/coflow/coflows"] {
		t.Fatalf("coflows_done = %d of %d", done, counters["workload/coflow/coflows"])
	}

	// Through the lake: the run's row carries the plan identity and the
	// tenant/coflow metrics.
	dir := t.TempDir()
	path := filepath.Join(dir, "run.jsonl")
	if err := run.WriteJSONLFile(path); err != nil {
		t.Fatal(err)
	}
	ix := &lake.Index{}
	if err := ix.IngestFile(path); err != nil {
		t.Fatal(err)
	}
	if len(ix.Rows) != 1 {
		t.Fatalf("got %d lake rows", len(ix.Rows))
	}
	row := ix.Rows[0]
	if row.WlPlan != "mix" || row.WlPlanSig != sc.WorkloadPlan.Hash() {
		t.Fatalf("lake plan identity wrong: %+v", row)
	}
	if row.Tenants != 2 {
		t.Fatalf("lake counted %d tenants, want 2", row.Tenants)
	}
	if row.Coflows == 0 || row.CoflowsDone == 0 {
		t.Fatalf("lake coflow metrics missing: %+v", row)
	}
	if row.CCTP99Us <= 0 {
		t.Fatalf("lake cct_p99_us = %g, want > 0", row.CCTP99Us)
	}
}

// Trace-driven runs used to record an empty workload identity; they now
// get a content-addressed "trace:<digest>".
func TestTraceRunManifestIdentity(t *testing.T) {
	sc := planScenario()
	flows, err := workload.LegacyPlan(workload.WebSearch, 0, 0).Generate(workload.Env{
		Hosts:          6,
		UplinkCapacity: 320 * units.Gbps,
		Load:           0.4,
		Duration:       sc.Duration,
	}, WorkloadRand(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) == 0 {
		t.Fatal("trace generation produced no flows")
	}
	sc.TraceFlows = flows
	sc.Telemetry = &obs.Options{}
	res := Run(sc)
	wl := res.Telemetry.Manifest.Workload
	if wl != workload.TraceID(flows) {
		t.Fatalf("trace run workload identity %q, want %q", wl, workload.TraceID(flows))
	}
}

// The sharded runner must fold the same global workload accounting into
// its merged artifact as the single-engine path.
func TestShardedRecordsWorkloadObs(t *testing.T) {
	sc := planScenario()
	sc.Scheme = Scheme(transport.SchemeDCTCP) // digest-stable under sharding
	sc.Workload = nil
	sc.WorkloadPlan = parsePlanOrDie(t, `{"name":"mix","sources":[
		{"kind":"poisson","tenant":"bg","cdf":"websearch","load":0.3},
		{"kind":"rpc","tenant":"rpc","fanout":3,"request_size":2000,"response_size":20000,"load":0.05}
	]}`)
	sc.Telemetry = &obs.Options{}

	single := Run(sc)
	sc.Shards = 2
	sharded := Run(sc)
	if sharded.Telemetry == nil {
		t.Fatal("sharded run produced no telemetry")
	}
	if got := sharded.Telemetry.Manifest.WorkloadPlanHash; got != sc.WorkloadPlan.Hash() {
		t.Fatalf("sharded manifest plan hash %q", got)
	}
	pick := func(run *obs.Run, ent, metric string) int64 {
		for _, c := range run.Counters {
			if c.Entity == ent && c.Metric == metric {
				return c.Value
			}
		}
		return -1
	}
	for _, key := range [][2]string{
		{"workload/tenant/bg", "flows"},
		{"workload/tenant/bg", "bytes"},
		{"workload/tenant/rpc", "flows"},
		{"workload/coflow", "coflows"},
	} {
		s, p := pick(single.Telemetry, key[0], key[1]), pick(sharded.Telemetry, key[0], key[1])
		if p <= 0 {
			t.Fatalf("sharded artifact missing %s/%s", key[0], key[1])
		}
		// Offered load is identical across runner paths; completion-
		// dependent metrics may differ, these offered ones may not.
		if s != p {
			t.Fatalf("%s/%s: single %d vs sharded %d", key[0], key[1], s, p)
		}
	}
}

// A run is labeled with the traffic it used: a plan-only scenario
// (Workload nil, as a farm point builds one) with the plan's name, and a
// plan beside a CDF with the plan, which is what the generator runs.
func TestRunLabelsPlanWorkload(t *testing.T) {
	sc := planScenario()
	sc.Workload = nil
	sc.WorkloadPlan = parsePlanOrDie(t, `{"name":"flash","sources":[{"kind":"poisson","cdf":"websearch"}]}`)
	sc.Telemetry = &obs.Options{}
	if got := Run(sc).Telemetry.Manifest.Workload; got != "flash" {
		t.Fatalf("plan-only run labeled %q, want the plan's name", got)
	}
	sc.Workload = workload.WebSearch
	if got := sc.WorkloadName(); got != "flash" {
		t.Fatalf("plan beside a CDF named %q, want the plan's name", got)
	}
}
