package harness

import (
	"bytes"
	"cmp"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"flexpass/internal/faults"
	"flexpass/internal/obs"
	"flexpass/internal/sim"
	"flexpass/internal/topo"
	"flexpass/internal/transport"
	"flexpass/internal/transport/schemes"
	"flexpass/internal/units"
	"flexpass/internal/workload"
)

// allSchemeNames is every scheme of the table, paper order.
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

// TestAllSchemeNamesCoverTable keeps the sharded, frame-balance and
// session suites on every scheme: a new table entry fails here until it
// joins allSchemeNames.
func TestAllSchemeNamesCoverTable(t *testing.T) {
	var names []string
	for _, s := range allSchemeNames {
		names = append(names, string(s))
	}
	slices.Sort(names)
	if want := schemes.Names(); !slices.Equal(names, want) {
		t.Fatalf("allSchemeNames = %v, want schemes.Names() = %v", names, want)
	}
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

// TestShardedMatchesSingleEngine checks the invariance TestShardedGolden
// pins, on a seed nothing pins: every scheme at seed 12 gives the
// one-engine flows at four shards.
func TestShardedMatchesSingleEngine(t *testing.T) {
	for _, scheme := range allSchemeNames {
		t.Run(string(scheme), func(t *testing.T) {
			sc := shardScenario(scheme, 1)
			sc.Seed = 12
			single := Run(sc)
			sc.Shards = 4
			sameFlows(t, "shards 4 vs 1", Run(sc), single)
		})
	}
}

// TestShardedFlowRecordRule: Result.Flows holds the flows whose arrival
// fires inside the run window, in (start, ID) order, at every shard
// count — an unsorted trace with one spec past the window yields the
// same two records, later-listed-but-earlier flow first, and so the
// same flows on one engine and on two.
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
	sameFlows(t, "shards 2 vs 1", two, one)
}

// TestShardedRunTwice runs two copies of a sharded run at once, as the
// farm and chaos soaks run points side by side: they must not see each
// other. Run-twice in sequence is what TestShardedGolden's shard-count
// equality already proves.
func TestShardedRunTwice(t *testing.T) {
	for _, scheme := range allSchemeNames {
		t.Run(string(scheme), func(t *testing.T) {
			var res [2]*Result
			var wg sync.WaitGroup
			for i := range res {
				wg.Add(1)
				go func() {
					defer wg.Done()
					res[i] = Run(shardScenario(scheme, 2))
				}()
			}
			wg.Wait()
			sameFlows(t, "concurrent sharded runs", res[1], res[0])
		})
	}
}

// redScenario is shardScenario(flexpass) with a 3 kB Q1 red threshold,
// so selective dropping decides the flows.
func redScenario(shards int) Scenario {
	sc := shardScenario(SchemeFlexPass, shards)
	sc.Spec.FlexRed = 3 * units.KB
	return sc
}

// TestShardedGolden is the proof that the shard count is invisible. Per
// scheme, and for the faulted and red rows, shards 1, 2 and 4 must each
// give the row's digest, and shards 1 its event count. Shards 2 and 4
// must also give the shards-1 events per profiler component, with two
// exceptions: a cross-shard arrival is one shard/inject event where one
// engine has a netem/deliver event, and a flow whose hosts sit on
// different shards starts with one harness/arrival event on each side.
func TestShardedGolden(t *testing.T) {
	type row struct {
		name string
		sc   Scenario
	}
	var rows []row
	for _, scheme := range allSchemeNames {
		rows = append(rows, row{string(scheme), shardScenario(scheme, 1)})
	}
	fault := shardFaultScenario(SchemeFlexPass)
	fault.FaultPlan = shardFaultPlan(t)
	rows = append(rows, row{"faulted", fault}, row{"flexpass/red", redScenario(1)})

	for _, r := range rows {
		r.sc.Profile = true
		var oneEvents map[string]uint64
		for _, shards := range []int{1, 2, 4} {
			r.sc.Shards = shards
			t.Run(fmt.Sprintf("%s/shards=%d", r.name, shards), func(t *testing.T) {
				res := Run(r.sc)
				if r.name == "flexpass/red" && res.DropsRed == 0 {
					t.Fatal("a 3 kB red threshold dropped nothing")
				}
				events := componentEvents(res)
				if shards == 1 {
					oneEvents = events
				} else if oneEvents != nil { // nil when -run left out the shards=1 subtest
					want := maps.Clone(oneEvents)
					want["netem/deliver"] -= events["shard/inject"]
					want["shard/inject"] = events["shard/inject"]
					want["harness/arrival"] += crossings(r.sc)
					if !maps.Equal(events, want) {
						t.Errorf("events per component at shards %d:\n%v\nwant (from shards 1)\n%v", shards, events, want)
					}
				}
				matchGolden(t, res, r.name)
			})
		}
	}
}

// componentEvents maps each profiler component to the events it
// dispatched.
func componentEvents(res *Result) map[string]uint64 {
	m := map[string]uint64{}
	for _, c := range res.Profile {
		m[c.Component] = c.Events
	}
	return m
}

// crossings counts the flows of sc that start inside its run window with
// their hosts on different shards.
func crossings(sc Scenario) (n uint64) {
	clos := sc.Clos.(topo.ClosParams)
	podShard := topo.ClosPodShards(clos, sc.Shards)
	perPod := clos.TorPerPod * clos.HostsPerTor
	for _, fs := range planWorkload(sc).flows {
		if fs.At <= sc.Duration+sc.Drain && podShard[fs.Src/perPod] != podShard[fs.Dst/perPod] {
			n++
		}
	}
	return n
}

// TestShardedCompletionParity: on a pinned modest-load cross-pod trace
// with a generous drain, every flow completes, on one engine and on four.
func TestShardedCompletionParity(t *testing.T) {
	for _, scheme := range allSchemeNames {
		t.Run(string(scheme), func(t *testing.T) {
			sc1, sc4 := shardFaultScenario(scheme), shardFaultScenario(scheme)
			sc1.Shards = 1
			r1, r4 := Run(sc1), Run(sc4)
			if s, p := incomplete(r1), incomplete(r4); s != 0 || p != 0 {
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

// TestShardedArtifactLines: a run writes one artifact whatever its shard
// count — every line but the manifest (wall time, shard count) byte for
// byte, counters and series in (entity, metric) order. The series cap is
// small enough that every series displaces samples, so a series summed
// across planes must keep the drop count each plane's copy has; the trace
// ring is big enough not to wrap, since each plane's ring keeps its own
// newest events.
func TestShardedArtifactLines(t *testing.T) {
	artifact := func(shards int) [][]byte {
		sc := shardScenario(SchemeFlexPass, shards)
		sc.Telemetry = &obs.Options{TraceCap: 1 << 20, SeriesCap: 64}
		var buf bytes.Buffer
		if err := Run(sc).Telemetry.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return bytes.SplitAfter(buf.Bytes(), []byte("\n"))[1:]
	}
	want := artifact(1)
	for _, shards := range []int{2, 4} {
		got := artifact(shards)
		for i := range min(len(got), len(want)) {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("shards=%d: line %d differs from the one-shard artifact:\n got %.300s\nwant %.300s", shards, i+2, got[i], want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("shards=%d: %d lines, one shard wrote %d", shards, len(got)+1, len(want)+1)
		}
	}
}

// TestShardedFaultPlanRunTwice: a 4-shard run under link flap plus
// burst loss — faults firing on several engines, loss drawn from the
// ports' own streams — must replay bit-identically, fault log included.
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
			sameFlows(t, "faulted sharded run twice", r2, r1)
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

// TestShardedFaultCounter: every plane counts the fault actions its own
// engine fires, so a two-shard faulted run with telemetry writes the same
// artifact every time, and the merged faults/actions_applied counter is
// the number of fault lines.
func TestShardedFaultCounter(t *testing.T) {
	var want [][]byte
	for run := range 3 {
		sc := shardFaultScenario(SchemeFlexPass)
		sc.Shards = 2
		sc.Drain = 10 * sim.Millisecond // past the plan's last action, at 4 ms
		sc.FaultPlan = shardFaultPlan(t)
		sc.Telemetry = &obs.Options{}
		tel := Run(sc).Telemetry
		applied := int64(-1)
		for _, c := range tel.Counters {
			if c.Entity == "faults" && c.Metric == "actions_applied" {
				applied = c.Value
			}
		}
		if applied != int64(len(tel.Faults)) || applied == 0 {
			t.Fatalf("run %d: faults/actions_applied = %d, the artifact has %d fault lines", run, applied, len(tel.Faults))
		}
		var buf bytes.Buffer
		if err := tel.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		got := bytes.SplitAfter(buf.Bytes(), []byte("\n"))[1:]
		if want == nil {
			want = got
			continue
		}
		for i := range min(len(got), len(want)) {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("run %d: line %d differs from run 0:\n got %.300s\nwant %.300s", run, i+2, got[i], want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("run %d: %d lines, run 0 wrote %d", run, len(got)+1, len(want)+1)
		}
	}
}

// TestShardedAllocBudget pins heap objects per engine event, so a return
// to one heap frame per packet fails go test instead of waiting for the
// benchmark's allocs column. Every frame comes from the fabric's free
// lists (netem.PacketPool) and every hand-off batch goes back to its edge
// (shard.Edge); what is left is the lists' high-water marks, per-ACK
// tracker state and fabric build, so two shards cost about what one does.
// Frames and events come from 64-element slabs, and every FIFO a frame
// waits in links through the frames, so none of them allocates per packet.
// Each budget is ~1.3x the measured ratio, below the ratio before slabs
// and linked FIFOs (first in brackets) and far below the ratio with heap
// frames (second), so every row fails without the pool; mallocs repeat to
// within ~4 % per (scenario, shards), with or without -race.
func TestShardedAllocBudget(t *testing.T) {
	for _, c := range []struct {
		scheme Scheme
		shards int
		budget float64 // heap objects per event
	}{
		{SchemeFlexPass, 1, 0.0081}, // measured 0.0062 [0.0142, 0.133]
		{SchemeFlexPass, 2, 0.0091}, // measured 0.0070 [0.0155, 0.133]
		{"homa", 1, 0.0013},         // measured 0.0010 [0.0025, 0.125]
		{"homa", 2, 0.0016},         // measured 0.0012 [0.0026, 0.126]
	} {
		t.Run(fmt.Sprintf("%s/shards=%d", c.scheme, c.shards), func(t *testing.T) {
			sc := shardScenario(c.scheme, c.shards)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res := Run(sc)
			runtime.ReadMemStats(&after)
			mallocs := after.Mallocs - before.Mallocs
			got := float64(mallocs) / float64(res.Events)
			t.Logf("%d heap objects over %d events = %.4f allocs/event", mallocs, res.Events, got)
			if got > c.budget {
				t.Fatalf("%d heap objects over %d events = %.4f allocs/event, budget %.4f", mallocs, res.Events, got, c.budget)
			}
		})
	}
}

// TestFlowAllocBudget pins heap objects per started flow: the set-up a
// flow costs, which is what runs of many short flows (§6.2's
// cache-follower and incast mixes) allocate most. A fixed list of 8 kB
// flows, 10 µs apart on the shardScenario fabric at full deployment, runs
// twice, the second time with as many flows again after the first ones;
// the extra mallocs over the extra flows are one flow's cost, net of the
// fabric and the run's fixed set-up. A flow is one Flow in the run's slab
// and its two endpoint halves, carved with their per-segment arrays from
// the arena of their plane's scheme config, each holding its recovery
// timer, window, pacer and config pointer by value; what is left on the
// heap is the engine's pre-bound callbacks (a sender's recovery check, a
// pacer's credit and feedback ticks, a Homa receiver's grant tick) and
// the arenas' arrays. Each budget is ~1.3x the measurement; in brackets,
// the measurement when each endpoint, its segment states, arrival flags,
// bitmaps and lost queue were heap objects of their own.
func TestFlowAllocBudget(t *testing.T) {
	const n = 400
	const gap = 10 * sim.Microsecond
	trace := func(k int) []workload.FlowSpec {
		r := rand.New(rand.NewSource(5))
		fs := make([]workload.FlowSpec, k)
		for i := range fs {
			src := r.Intn(8)
			fs[i] = workload.FlowSpec{Src: src, Dst: (src + 1 + r.Intn(7)) % 8, Size: 8000, At: sim.Time(i) * gap}
		}
		return fs
	}
	mallocs := func(scheme Scheme, k int) uint64 {
		sc := shardScenario(scheme, 0)
		sc.Deployment = 1
		sc.TraceFlows = trace(k)
		sc.Duration = sim.Time(k)*gap + sim.Microsecond
		sc.Drain = 20 * sim.Millisecond
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		Run(sc)
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	for _, c := range []struct {
		scheme Scheme
		budget float64 // heap objects per started flow
	}{
		{Scheme(transport.SchemeDCTCP), 1.4},       // measured 1.05 [4.99]
		{Scheme(transport.SchemeExpressPass), 4.0}, // measured 3.08 [7.00]
		{SchemeFlexPass, 4.1},                      // measured 3.15 [9.12]
		{Scheme(transport.SchemeHoma), 1.4},        // measured 1.01 [3.00]
		{Scheme(transport.SchemePHost), 1.4},       // measured 1.04 [5.00]
	} {
		t.Run(string(c.scheme), func(t *testing.T) {
			got := float64(mallocs(c.scheme, 2*n)-mallocs(c.scheme, n)) / n
			t.Logf("%.2f heap objects per started flow", got)
			if got > c.budget {
				t.Fatalf("%.2f heap objects per started flow, budget %.2f", got, c.budget)
			}
		})
	}
}

// TestFlowBytesBudget pins heap bytes per long FlexPass flow on a plane
// that has run one like it before. A fixed list of 1 MB flows between two
// hosts, each starting after the last has finished, runs twice, the
// second time with as many flows again after the first ones, as in
// TestFlowAllocBudget. A sender's transmission records come from its
// plane's free list and go back to it when the sender finishes, so the
// flows after the first allocate no records: what is left is each flow's
// per-segment state at both ends, about 9 B a segment. The budget is
// ~1.3x the measurement (5 804 B under -race) and far below the parent's
// (in brackets), when each flow grew its own records from the heap.
func TestFlowBytesBudget(t *testing.T) {
	const (
		n      = 20
		gap    = 2 * sim.Millisecond // a 1 MB flow alone at 10 Gb/s takes ~1 ms
		budget = 7900                // measured 6 064 [59 690]
	)
	bytes := func(k int) uint64 {
		sc := shardScenario(SchemeFlexPass, 0)
		sc.Deployment = 1
		sc.TraceFlows = make([]workload.FlowSpec, k)
		for i := range sc.TraceFlows {
			sc.TraceFlows[i] = workload.FlowSpec{Src: 0, Dst: 7, Size: 1_000_000, At: sim.Time(i) * gap}
		}
		sc.Duration = sim.Time(k) * gap
		sc.Drain = 20 * sim.Millisecond
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := Run(sc)
		runtime.ReadMemStats(&after)
		for _, r := range res.Flows.Records {
			if !r.Completed {
				t.Fatalf("flow %d of %d did not complete", r.ID, k)
			}
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	got := float64(bytes(2*n)-bytes(n)) / n
	t.Logf("%.0f heap bytes per 1 MB FlexPass flow", got)
	if got > budget {
		t.Fatalf("%.0f heap bytes per 1 MB FlexPass flow after the first, budget %d", got, budget)
	}
}

// TestShardedArenasKeepEnginesApart: on two shards, every flow's sender
// is carved from the arena of its source host's plane and its receiver
// from its destination's, so no cache line holds endpoints of two
// engines, even for the flows that cross the cut. One arena shared by the
// planes would interleave the two shard goroutines' endpoints within an
// array, as one slab would their ports (topo's
// TestShardedSlabsKeepEnginesApart). Half the racks run FlexPass and half
// DCTCP, so both kinds of arena are covered, and neighbours of one engine
// that abut show the endpoints really are carved from shared arrays.
func TestShardedArenasKeepEnginesApart(t *testing.T) {
	sc := shardScenario(SchemeFlexPass, 2)
	sc.Duration = sim.Millisecond
	s := Open(sc)
	s.Run(sc.Duration + sc.Drain)
	type end struct {
		lo, hi uintptr // [lo, hi) in memory
		eng    *sim.Engine
		what   string
	}
	var ends []end
	add := func(ep transport.Endpoint, eng *sim.Engine, what string, id uint64) {
		v := reflect.ValueOf(ep)
		lo := v.Pointer()
		ends = append(ends, end{lo, lo + v.Type().Elem().Size(), eng, fmt.Sprintf("flow %d %s (%T)", id, what, ep)})
	}
	engines, cross := map[*sim.Engine]bool{}, 0
	for _, fl := range s.Flows() {
		if fl.Sender == nil || fl.Receiver == nil {
			continue
		}
		add(fl.Sender, fl.Src.Eng, "sender", fl.ID)
		add(fl.Receiver, fl.Dst.Eng, "receiver", fl.ID)
		engines[fl.Src.Eng] = true
		if fl.Src.Eng != fl.Dst.Eng {
			cross++
		}
	}
	s.Close()
	if len(engines) != 2 || cross == 0 {
		t.Fatalf("flows start on %d engines, %d of them across the cut: the scenario no longer covers two planes", len(engines), cross)
	}
	slices.SortFunc(ends, func(a, b end) int { return cmp.Compare(a.lo, b.lo) })
	const line = 64
	mixed, abut := 0, 0
	for i := 1; i < len(ends); i++ {
		a, b := ends[i-1], ends[i]
		switch {
		case a.eng != b.eng && (a.hi-1)/line >= b.lo/line:
			if mixed == 0 {
				t.Errorf("%s and %s run on two engines and share a cache line", a.what, b.what)
			}
			mixed++
		case a.eng == b.eng && a.hi == b.lo:
			abut++
		}
	}
	if mixed > 0 {
		t.Fatalf("%d neighbouring endpoints of two engines share a cache line", mixed)
	}
	if abut < len(ends)/2 {
		t.Fatalf("only %d of %d endpoints abut a neighbour of their engine: endpoints are not carved from arenas", abut, len(ends))
	}
}

// TestObservedAllocBudget pins what the observers allocate the way
// TestShardedAllocBudget pins the engine: heap bytes per (probe tick ×
// source) over a fixed-seed telemetry + forensics + profile run whose
// 60 ms drain is mostly idle ticks, as the benchmark's observed workload
// is. A series costs memory per value change, not per sample
// (obs.Samples), hop records sit in pointer-free blocks reused across
// flows, and the registry is sized once for the fabric, so the whole run —
// fabric, trace ring, hop logs and the collected artifact included —
// allocates 3.25 B per tick × source; when each series grew a run array
// of its own by doubling, it allocated 3.22 [in brackets, as above]: the
// prober's blocks and the one copy Series makes of them cost what the
// doubling arrays' slack and outgrown copies did. With 80-byte hop records
// in per-flow slices grown by append and a registry grown a source at a
// time, the run allocated 7.91, and with an 8 B ring slot per sample,
// grown by doubling and copied once at exit, 41.9. The second run doubles
// the drain: twice the ticks and no new value changes, so its series must
// hold exactly as many runs as the first's.
//
// Heap objects per registered source pin the cost of registering and
// probing one: a source is an address the tick reads, its series sits in
// the prober's one slice, a value change is a run in a block carved from
// the prober's chunks, and a series that never changes keeps its run in
// the array the tick held it open in, so the whole run costs 4.05 objects
// per source [4.43]; with a closure, a *Series and a run slice of its own
// for each, it cost 8.70.
func TestObservedAllocBudget(t *testing.T) {
	const (
		budget        = 4.2 // measured 3.25 [3.22]
		objectsBudget = 5.3 // measured 4.05 [4.43]
	)
	observe := func(drain sim.Time) (perTickSource, perSource float64, runs, samples int) {
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
		sources := len(res.Telemetry.Series)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(samples),
			float64(after.Mallocs-before.Mallocs) / float64(sources), runs, samples
	}
	got, objects, runs, samples := observe(60 * sim.Millisecond)
	t.Logf("%.2f B per tick × source, %.2f heap objects per source", got, objects)
	if got > budget {
		t.Fatalf("%.2f B allocated per tick × source over %d samples, budget %.2f", got, samples, budget)
	}
	if objects > objectsBudget {
		t.Fatalf("%.2f heap objects per registered source, budget %.2f", objects, objectsBudget)
	}
	_, _, runs2, samples2 := observe(120 * sim.Millisecond)
	if samples2 < 2*samples-samples/10 || runs2 != runs {
		t.Fatalf("drain doubled: %d samples in %d runs, then %d samples in %d runs; want twice the samples in the same runs",
			samples, runs, samples2, runs2)
	}
	if held := 16 * runs; held > samples/10 {
		t.Fatalf("series hold %d B for %d samples: memory follows ticks, not value changes", held, samples)
	}
}
