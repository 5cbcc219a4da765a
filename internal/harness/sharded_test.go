package harness

import (
	"fmt"
	"runtime"
	"testing"

	"flexpass/internal/faults"
	"flexpass/internal/sim"
	"flexpass/internal/topo"
	"flexpass/internal/transport"
	"flexpass/internal/units"
	"flexpass/internal/workload"
)

// allSchemeNames is every registered built-in scheme, paper order.
var allSchemeNames = []Scheme{
	Scheme(transport.SchemeDCTCP),
	Scheme(transport.SchemeExpressPass),
	SchemeNaive,
	SchemeOWF,
	SchemeLayering,
	SchemeFlexPass,
	SchemeFlexPassAltQ,
	SchemeFlexPassRC3,
	Scheme(transport.SchemeHoma),
	Scheme(transport.SchemePHost),
}

// shardScenario is a small 4-pod Clos (8 hosts, 2 cores) that actually
// partitions at 2 and 4 shards, with mixed deployment so both the active
// and legacy transports cross the shard cut.
func shardScenario(scheme Scheme, shards int) Scenario {
	return Scenario{
		Seed:       11,
		Clos:       topo.ClosParams{Pods: 4, AggPerPod: 2, TorPerPod: 1, HostsPerTor: 2, Cores: 2},
		LinkRate:   10 * units.Gbps,
		LinkDelay:  2 * sim.Microsecond,
		HostDelay:  sim.Microsecond,
		SwitchBuf:  1000 * units.KB,
		BufAlpha:   0.25,
		Scheme:     scheme,
		WQ:         0.5,
		Workload:   workload.WebSearch,
		Load:       0.5,
		Deployment: 0.5,
		Duration:   3 * sim.Millisecond,
		Drain:      60 * sim.Millisecond,
		Shards:     shards,
	}
}

// TestShardedMatchesSingleEngine cross-checks the parallel engine
// against the reference single-engine path on the schemes that never
// draw engine randomness on a clean run (dctcp, homa, phost): their
// flow digests must be bit-identical at any shard count. Credit-paced
// schemes cannot take this test — the pacer's jitter draw comes from
// the engine RNG, which is per-shard by design — so they are covered by
// the run-twice and completion-parity tests below.
func TestShardedMatchesSingleEngine(t *testing.T) {
	// Per-scheme seeds: equality additionally requires that no two
	// packets from different shards arrive at a merge port in the same
	// picosecond (the documented tie caveat — see DESIGN.md §8). Homa's
	// grant bursts produce such a collision at seed 11, so it runs at a
	// collision-free seed; the property under test (no RNG divergence,
	// identical packet-level behaviour) is the same.
	for scheme, seed := range map[Scheme]int64{
		Scheme(transport.SchemeDCTCP): 11,
		Scheme(transport.SchemeHoma):  12,
		Scheme(transport.SchemePHost): 11,
	} {
		scheme, seed := scheme, seed
		t.Run(string(scheme), func(t *testing.T) {
			sc1, sc2 := shardScenario(scheme, 1), shardScenario(scheme, 2)
			sc1.Seed, sc2.Seed = seed, seed
			single := Run(sc1)
			sharded := Run(sc2)
			ds, dp := recordsDigest(single), recordsDigest(sharded)
			t.Logf("%s: single %s sharded %s (events %d vs %d)",
				scheme, ds, dp, single.Events, sharded.Events)
			if ds != dp {
				t.Fatalf("sharded digest %s != single-engine %s", dp, ds)
			}
		})
	}
}

// TestShardedFlowRecordRule: Result.Flows holds the flows whose arrival
// fires inside the run window, in (start, ID) order, at every shard
// count — an unsorted trace with one spec past the window yields the
// same two records, later-listed-but-earlier flow first, and so the
// same digest on one engine and on two.
func TestShardedFlowRecordRule(t *testing.T) {
	run := func(shards int) *Result {
		sc := shardScenario(Scheme(transport.SchemeDCTCP), shards)
		sc.TraceFlows = []workload.FlowSpec{
			{Src: 0, Dst: 4, Size: 200_000, At: 200 * sim.Microsecond},
			{Src: 6, Dst: 2, Size: 100_000, At: 100 * sim.Microsecond},
			{Src: 1, Dst: 5, Size: 50_000, At: sc.Duration + sc.Drain + sim.Millisecond},
		}
		return Run(sc)
	}
	one, two := run(1), run(2)
	for _, res := range []*Result{one, two} {
		recs := res.Flows.Records
		if len(recs) != 2 || recs[0].ID != 2 || recs[1].ID != 1 {
			t.Fatalf("shards=%d: records %+v, want flows [2 1]", res.Scenario.Shards, recs)
		}
	}
	if d1, d2 := recordsDigest(one), recordsDigest(two); d1 != d2 {
		t.Fatalf("digest %s at shards 1 != %s at shards 2", d1, d2)
	}
}

// TestShardedRunTwice asserts reproducibility of the parallel engine
// for every built-in scheme: two runs at the same shard count must be
// bit-identical, whatever the goroutine interleaving did.
func TestShardedRunTwice(t *testing.T) {
	for _, scheme := range allSchemeNames {
		scheme := scheme
		t.Run(string(scheme), func(t *testing.T) {
			d1 := recordsDigest(Run(shardScenario(scheme, 2)))
			d2 := recordsDigest(Run(shardScenario(scheme, 2)))
			if d1 != d2 {
				t.Fatalf("sharded run not reproducible: %s vs %s", d1, d2)
			}
		})
	}
}

// shardGolden pins flow digest and engine event count of shardScenario
// for every built-in scheme at shards 1, 2 and 4, and of the faulted
// pinned trace (shardFaultScenario + shardFaultPlan, flexpass) per shard
// count. Run-twice equality cannot see a refactor that reorders shard
// set-up (component registration, fault application, arrival
// scheduling); these constants can. Recorded on linux/amd64, go1.24,
// before the two runners were merged; they change only when the
// simulated model does. Re-record with:
//
//	go test -run TestShardedGolden -v ./internal/harness/
type shardGoldenRow struct {
	digest string
	events uint64
}

var shardGolden = map[Scheme][3]shardGoldenRow{
	Scheme(transport.SchemeDCTCP):       {{"2e49bb4d9e8bcfa8", 265850}, {"2e49bb4d9e8bcfa8", 265623}, {"2e49bb4d9e8bcfa8", 266529}},
	Scheme(transport.SchemeExpressPass): {{"d6c3e53b3ae4bf62", 1446157}, {"d8701f4dc1c524c7", 1294376}, {"93ddd719342c615b", 1271494}},
	SchemeNaive:                         {{"d6c3e53b3ae4bf62", 1446157}, {"d8701f4dc1c524c7", 1294376}, {"93ddd719342c615b", 1271494}},
	SchemeOWF:                           {{"9b98dad6288498d3", 198018}, {"e6193d1da5415c24", 193391}, {"feaf70801ad99891", 205486}},
	SchemeLayering:                      {{"4424964421c364c0", 982150}, {"c562951f7f736645", 396286}, {"8d58e7c8e8c96374", 1238906}},
	SchemeFlexPass:                      {{"9b6a7b33565f5ea1", 1222353}, {"2f34dab6eb1a2d8d", 373928}, {"f95c6747be3631d9", 464557}},
	SchemeFlexPassAltQ:                  {{"802bb1a84035e749", 379589}, {"a54a273a904f1763", 436790}, {"360c3b9177840ece", 503534}},
	SchemeFlexPassRC3:                   {{"bbee4e5caee57c66", 613797}, {"0155a0a9f5b26506", 498185}, {"2c06f1b52fa8894a", 717378}},
	Scheme(transport.SchemeHoma):        {{"bdbe50ce47273fd0", 1455472}, {"ccefb7b8cce7f23c", 1454967}, {"bdbe50ce47273fd0", 1453812}},
	Scheme(transport.SchemePHost):       {{"72eafc210d9535dd", 183867}, {"72eafc210d9535dd", 184862}, {"72eafc210d9535dd", 186951}},
}

var shardFaultGolden = [3]shardGoldenRow{{"808c98d9eadd27a8", 65854}, {"808c98d9eadd27a8", 67412}, {"536249be3a262ccc", 67869}}

func TestShardedGolden(t *testing.T) {
	check := func(t *testing.T, res *Result, want shardGoldenRow) {
		t.Helper()
		got := shardGoldenRow{recordsDigest(res), res.Events}
		t.Logf("{%q, %d}", got.digest, got.events)
		if runtime.GOARCH != "amd64" {
			t.Skipf("golden constants recorded on amd64; got %s", runtime.GOARCH)
		}
		if got != want {
			t.Fatalf("got %+v, recorded %+v — runner composition changed behaviour", got, want)
		}
	}
	for i, shards := range []int{1, 2, 4} {
		i, shards := i, shards
		for _, scheme := range allSchemeNames {
			scheme := scheme
			t.Run(fmt.Sprintf("%s/shards=%d", scheme, shards), func(t *testing.T) {
				check(t, Run(shardScenario(scheme, shards)), shardGolden[scheme][i])
			})
		}
		t.Run(fmt.Sprintf("faulted/shards=%d", shards), func(t *testing.T) {
			sc := shardFaultScenario(SchemeFlexPass)
			sc.Shards = shards
			sc.FaultPlan = shardFaultPlan(t)
			check(t, Run(sc), shardFaultGolden[i])
		})
	}
}

// TestShardedCompletionParity: even where bit-identity across shard
// counts is out of reach (credit pacers draw per-shard jitter), the
// outcome must agree. Two halves:
//
//   - On the random workload, the flow population must be structurally
//     identical (same IDs, sizes, start times) — the sharded path must
//     not perturb workload generation or flow bring-up.
//   - On a pinned modest-load cross-pod trace with a generous drain,
//     every flow must complete on both paths: jitter may move FCTs, but
//     no flow may stall only on one engine layout.
func TestShardedCompletionParity(t *testing.T) {
	for _, scheme := range allSchemeNames {
		scheme := scheme
		t.Run(string(scheme), func(t *testing.T) {
			single := Run(shardScenario(scheme, 1))
			sharded := Run(shardScenario(scheme, 2))
			if len(single.Flows.Records) != len(sharded.Flows.Records) {
				t.Fatalf("flow counts diverged: %d vs %d",
					len(single.Flows.Records), len(sharded.Flows.Records))
			}
			for i := range single.Flows.Records {
				a, b := single.Flows.Records[i], sharded.Flows.Records[i]
				if a.ID != b.ID || a.Size != b.Size || a.Start != b.Start || a.Legacy != b.Legacy {
					t.Fatalf("flow %d structurally diverged: %+v vs %+v", i, a, b)
				}
			}

			sc1, sc2 := shardFaultScenario(scheme), shardFaultScenario(scheme)
			sc1.Shards = 1
			r1, r2 := Run(sc1), Run(sc2)
			if s, p := r1.Flows.Incomplete(), r2.Flows.Incomplete(); s != 0 || p != 0 {
				t.Fatalf("pinned-trace incomplete flows: single %d, sharded %d", s, p)
			}
		})
	}
}

// shardFaultScenario pins a cross-pod trace through a 4-shard run under
// a flap-and-burst plan: a blackhole on a pod-0 ToR downlink and burst
// loss on a pod-2 agg↔core uplink — the latter a cross-shard wire, so
// fault state flips on the engine that owns the port.
func shardFaultScenario(scheme Scheme) Scenario {
	sc := shardScenario(scheme, 4)
	sc.Duration = 8 * sim.Millisecond
	sc.Drain = 300 * sim.Millisecond
	sc.TraceFlows = []workload.FlowSpec{
		{Src: 4, Dst: 0, Size: 2_000_000, At: 500 * sim.Microsecond}, // pod2→pod0, spans the blackhole
		{Src: 6, Dst: 2, Size: 500_000, At: sim.Millisecond},         // pod3→pod1
		{Src: 5, Dst: 0, Size: 500_000, At: 1500 * sim.Microsecond},  // starts inside the blackhole
		{Src: 0, Dst: 4, Size: 800_000, At: 2200 * sim.Microsecond},  // pod0→pod2, spans the burst
		{Src: 1, Dst: 5, Size: 1_000_000, At: 2500 * sim.Microsecond},
		{Src: 2, Dst: 7, Size: 400_000, At: 3 * sim.Millisecond},
		{Src: 3, Dst: 6, Size: 500_000, At: 5 * sim.Millisecond},
		{Src: 7, Dst: 1, Size: 600_000, At: 7 * sim.Millisecond}, // recovery phase
	}
	return sc
}

func shardFaultPlan(t *testing.T) *faults.Plan {
	t.Helper()
	p, err := faults.ParseSpec(
		"down@tor0.0->h0.0.0@1ms-2ms,burst@agg2.0<->core0:fwd@2ms-4ms@1.0@8@200")
	if err != nil {
		t.Fatal(err)
	}
	p.Name = "shard-flap-burst"
	return p
}

// TestShardedFaultPlanRunTwice: a 4-shard run under link flap plus
// burst loss — faults firing on several engines, loss drawn from
// per-shard RNG streams — must still replay bit-identically, fault log
// included.
func TestShardedFaultPlanRunTwice(t *testing.T) {
	for _, scheme := range []Scheme{Scheme(transport.SchemeDCTCP), SchemeFlexPass} {
		scheme := scheme
		t.Run(string(scheme), func(t *testing.T) {
			run := func() *Result {
				sc := shardFaultScenario(scheme)
				sc.FaultPlan = shardFaultPlan(t)
				return Run(sc)
			}
			r1, r2 := run(), run()
			if d1, d2 := recordsDigest(r1), recordsDigest(r2); d1 != d2 {
				t.Fatalf("faulted sharded run not reproducible: %s vs %s", d1, d2)
			}
			f1, f2 := r1.Faults.Export(), r2.Faults.Export()
			if len(f1) != len(f2) {
				t.Fatalf("fault logs diverged: %d vs %d actions", len(f1), len(f2))
			}
			for i := range f1 {
				if f1[i] != f2[i] {
					t.Fatalf("fault action %d diverged: %+v vs %+v", i, f1[i], f2[i])
				}
			}
			if r1.FaultDrops.Injected == 0 {
				t.Fatal("fault plan injected no losses; scenario does not exercise the faults")
			}
		})
	}
}

// TestShardedAllocBudget pins heap objects per engine event, so a return
// to one heap frame per packet fails go test instead of waiting for the
// benchmark's allocs column. Every frame comes from the fabric's free
// lists (netem.PacketPool); what is left is the lists' high-water mark,
// per-ACK tracker state, fabric build and — at two shards — the per-round
// hand-off batches. Each budget is ~1.3x the ratio measured with pooled
// frames and below the ratio measured with heap frames (in brackets), so
// every row fails without the pool; mallocs are exact to ~0.05 % per
// (scenario, shards), with or without -race.
func TestShardedAllocBudget(t *testing.T) {
	for _, c := range []struct {
		scheme Scheme
		shards int
		budget float64 // heap objects per event
	}{
		{SchemeFlexPass, 1, 0.110}, // measured 0.084 [0.168]
		{SchemeFlexPass, 2, 0.256}, // measured 0.197 [0.281]
		{"homa", 1, 0.0031},        // measured 0.0024 [0.118]
		{"homa", 2, 0.038},         // measured 0.029 [0.144]
	} {
		t.Run(fmt.Sprintf("%s/shards=%d", c.scheme, c.shards), func(t *testing.T) {
			sc := shardScenario(c.scheme, c.shards)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res := Run(sc)
			runtime.ReadMemStats(&after)
			mallocs := after.Mallocs - before.Mallocs
			if got := float64(mallocs) / float64(res.Events); got > c.budget {
				t.Fatalf("%d heap objects over %d events = %.4f allocs/event, budget %.4f", mallocs, res.Events, got, c.budget)
			}
		})
	}
}

// TestObservedAllocBudget pins what the observers allocate the way
// TestShardedAllocBudget pins the engine: heap bytes per (probe tick ×
// source) over a fixed-seed telemetry + forensics + profile run whose
// 60 ms drain is mostly idle ticks, as the benchmark's observed workload
// is. A series costs memory per value change, not per sample
// (obs.Samples), so the whole run — fabric, trace ring, hop logs and the
// collected artifact included — allocates 8.7 B per tick × source; with
// an 8 B ring slot per sample, grown by doubling and copied once at
// exit, it allocated 41.9 [in brackets, as above]. The second run doubles
// the drain: twice the ticks and no new value changes, so its series
// must hold exactly as many runs as the first's.
func TestObservedAllocBudget(t *testing.T) {
	const budget = 13.0 // measured 8.72 [41.94]
	observe := func(drain sim.Time) (perTickSource float64, runs, samples int) {
		sc := forensicsScenario()
		sc.Profile = true
		sc.Drain = drain
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := Run(sc)
		runtime.ReadMemStats(&after)
		for _, s := range res.Telemetry.Series {
			runs += s.Values.Runs()
			samples += s.Values.Len()
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(samples), runs, samples
	}
	got, runs, samples := observe(60 * sim.Millisecond)
	if got > budget {
		t.Fatalf("%.2f B allocated per tick × source over %d samples, budget %.2f", got, samples, budget)
	}
	_, runs2, samples2 := observe(120 * sim.Millisecond)
	if samples2 < 2*samples-samples/10 || runs2 != runs {
		t.Fatalf("drain doubled: %d samples in %d runs, then %d samples in %d runs; want twice the samples in the same runs",
			samples, runs, samples2, runs2)
	}
	if held := 16 * runs; held > samples/10 {
		t.Fatalf("series hold %d B for %d samples: memory follows ticks, not value changes", held, samples)
	}
}
