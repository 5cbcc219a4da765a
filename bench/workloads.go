package main

import (
	"bytes"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"flexpass/internal/farm"
	"flexpass/internal/forensics"
	"flexpass/internal/harness"
	"flexpass/internal/lake"
	"flexpass/internal/metrics"
	"flexpass/internal/obs"
	"flexpass/internal/sim"
	"flexpass/internal/topo"
	"flexpass/internal/workload"
)

// workloadDef is one named reference workload. why is the reason it is
// in the benchmark (BENCHMARK.json and README.md carry the same line).
type workloadDef struct {
	name    string
	why     string
	needs2  bool // needs two cores to mean anything (shards, farm workers)
	minReps int  // reps taken even when they overrun the time budget

	// reference, when set, names a variant run once per invocation whose
	// flow digest every rep must equal. variants are the extra reps the
	// traced pass runs for ratios that need a second process. Both are
	// defined in scenarioFor.
	reference string
	variants  []string
}

const farmSweep = "farm-sweep"

var workloads = []workloadDef{
	{name: "clos-mixed", minReps: 3,
		why: "paper 192-host Clos, web-search at load 0.8, FlexPass on half the racks: MTU frames over uncongested hops, netem per-hop cost and shallow-heap dispatch"},
	{name: "smallflow-incast", minReps: 3,
		why: "same fabric, cache-follower sizes plus 8 kB incast at full deployment: credit frames, rate limiters, selective drops, standing queues, 10x the flows"},
	{name: "big-sharded", minReps: 3, needs2: true, variants: []string{"half-shards1", "half-shards2"},
		why: "768-host Clos on two shards: the only run through the parallel engine (barrier rounds, cross-shard hand-off) and a 4x working set"},
	{name: "observed", minReps: 3, reference: "none", variants: []string{"none", "telemetry", "forensics", "prof"},
		why: "clos-mixed at half size with telemetry, forensics, profiler and artifact export on: observers do most of the work here and none elsewhere"},
	{name: farmSweep, minReps: 2, needs2: true,
		why: "48 short telemetry-on points through farm.Execute on two workers: fabric build, trace replay, export and indexing outside the event loop"},
}

//go:embed specs/*.json
var specFS embed.FS

func mustSpec(name string) []byte {
	data, err := specFS.ReadFile("specs/" + name)
	if err != nil {
		panic(err) // embedded at build time
	}
	return data
}

// repArgs selects what one child process runs.
type repArgs struct {
	workload string
	variant  string // "" is the workload itself; see scenarioFor
	seed     int64
	rep      int
	scale    float64 // 1 except in smoke tests
	traced   bool
	tmp      string // scratch root for lakes and artifacts
}

// repResult is what one child reports on its last stdout line.
type repResult struct {
	Workload  string             `json:"workload"`
	Variant   string             `json:"variant,omitempty"`
	Rep       int                `json:"rep"`
	SetupS    float64            `json:"setup_s"` // fastest set-up, see setUp
	WallS     float64            `json:"wall_s"`
	Events    uint64             `json:"events"`
	Allocs    uint64             `json:"allocs"`
	AllocMB   float64            `json:"alloc_mb"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Digest    string             `json:"digest"`
	Problems  []string           `json:"problems,omitempty"` // failed correctness checks
	Layer     map[string]float64 `json:"layer,omitempty"`    // traced reps only
	Spans     []span             `json:"spans,omitempty"`

	// Filled in by the parent from the child's rusage.
	CPUS      float64 `json:"cpu_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
}

// steadyFlows makes a flow list that offers a fixed amount of work at
// sc's load, whatever the seed: it generates sc's flows, keeps them in
// arrival order until their bytes reach budget, and adds exactly
// `incasts` incast events inside the span the kept flows arrive in. It
// returns the flows and the time the last one arrives. Two kinds of
// flow are passed over: one that would overshoot the budget, and one
// larger than an eighth of it, which would be most of the run on its
// own (none is, at full scale on the paper fabrics; the farm's 1 ms
// points drop web-search's multi-megabyte tail).
//
// Why not the generator's own window and incast source: web-search and
// cache-follower sizes are heavy-tailed and incast events are Poisson
// with a mean of three per window, so a fixed window holds 0.7x to 1.2x
// the mean bytes and 1x to 4x the flows from seed to seed. A fixed
// amount of offered work lets two seeds be compared, and leaves the
// arrival rate what the scenario says.
func steadyFlows(sc harness.Scenario, window sim.Time, budget int64, incasts int) ([]workload.FlowSpec, sim.Time) {
	var kept []workload.FlowSpec
	var end sim.Time
	enough := budget - budget/200
	// Generate over 2, 4, 8, 16 windows until a list reaches the budget.
	for sc.Duration = 2 * window; sc.Duration <= 16*window; sc.Duration *= 2 {
		var sum int64
		kept, end = kept[:0], 0
		for _, f := range harness.Flows(sc) {
			if f.Size > budget/8 || sum+f.Size > budget {
				continue
			}
			kept = append(kept, f)
			sum += f.Size
			end = f.At
			if sum >= enough {
				break
			}
		}
		if sum >= enough {
			break
		}
	}
	// An incast event is what workload.IncastParams generates: every
	// other host sends 4 flows of 8 kB to one receiver at one instant.
	r := rand.New(rand.NewSource(sc.Seed))
	hosts := sc.Clos.Hosts()
	var fg []workload.FlowSpec
	for e := 0; e < incasts; e++ {
		dst := r.Intn(hosts)
		at := sim.Time(r.Int63n(int64(end) + 1))
		for src := 0; src < hosts; src++ {
			if src == dst {
				continue
			}
			for k := 0; k < 4; k++ {
				fg = append(fg, workload.FlowSpec{Src: src, Dst: dst, Size: 8000, At: at, Incast: true})
			}
		}
	}
	return workload.Merge(kept, fg), end
}

// scenarioFor builds a scenario workload (or a variant of one) with its
// flow list generated from seed and pinned as TraceFlows, so the timed
// call receives only generated inputs. A budget is the mean number of
// bytes the nominal window offers at the scenario's load. export says
// the timed call also writes the run's artifact.
func scenarioFor(a repArgs) (sc harness.Scenario, export bool, err error) {
	sc = harness.BaseScenario(true) // PaperClos, 40G links, 4.5 MB buffers
	sc.Seed = a.seed
	sc.Scheme = harness.SchemeFlexPass
	sc.Workload = workload.WebSearch
	sc.Load = 0.8
	sc.Deployment = 0.5
	sc.Drain = 60 * sim.Millisecond
	var window sim.Time // nominal arrival window
	var budget int64
	incasts := 0
	switch a.workload {
	case "clos-mixed":
		window, budget = 2*sim.Millisecond, 520e6
	case "smallflow-incast":
		sc.Workload = workload.CacheFollower
		sc.Load = 0.6
		sc.Deployment = 1
		window, budget, incasts = sim.Millisecond, 190e6, 3
	case "big-sharded":
		sc.Clos = topo.BigClos
		sc.Shards = 2
		window, budget = 750*sim.Microsecond, 575e6
	case "observed":
		window, budget = sim.Millisecond, 260e6
		sc.Telemetry = &obs.Options{TraceCap: 65536}
		sc.Forensics = &forensics.Options{}
		sc.Profile = true
		export = true
	default:
		return sc, false, fmt.Errorf("unknown scenario workload %q", a.workload)
	}
	switch a.variant {
	case "":
	case "none", "telemetry", "forensics", "prof": // observed with one observer, or none
		sc.Telemetry, sc.Forensics, sc.Profile, export = nil, nil, false, false
		switch a.variant {
		case "telemetry":
			sc.Telemetry = &obs.Options{TraceCap: 65536}
		case "forensics":
			sc.Forensics = &forensics.Options{}
		case "prof":
			sc.Profile = true
		}
	case "half-shards1", "half-shards2": // big-sharded at half size, one or two engines
		budget /= 2
		sc.Shards = 1
		if a.variant == "half-shards2" {
			sc.Shards = 2
		}
	default:
		return sc, false, fmt.Errorf("unknown variant %q", a.variant)
	}
	if a.traced {
		if sc.Telemetry == nil {
			sc.Telemetry = &obs.Options{}
		}
		sc.Profile = true
	}
	flows, end := steadyFlows(sc, sim.Time(float64(window)*a.scale), int64(float64(budget)*a.scale),
		int(math.Ceil(float64(incasts)*a.scale)))
	if len(flows) == 0 {
		return sc, false, fmt.Errorf("%s: seed %d generated no flows", a.workload, a.seed)
	}
	sc.TraceFlows = flows
	sc.Duration = end + sim.Microsecond
	return sc, export, nil
}

// flowDigest is the run's behavioural fingerprint: sha-256 over the
// flow records sorted by ID. Any host-speed change must leave it alone.
func flowDigest(recs []metrics.FlowRecord) string {
	sorted := append([]metrics.FlowRecord(nil), recs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	h := sha256.New()
	for _, r := range sorted {
		fmt.Fprintf(h, "%d %d %d %d %t %s %d %d %d\n", r.ID, r.Size, r.Start, r.FCT,
			r.Completed, r.Transport, r.Timeouts, r.Retransmits, r.RxBytes)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// timed runs fn and reports its host time and heap allocation.
func timed(res *repResult, fn func()) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	fn()
	res.WallS = time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	res.Allocs = m1.Mallocs - m0.Mallocs
	res.AllocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
}

// setUp makes a rep's inputs with fn, over and over for a tenth of a
// second (at least five times), inside one span. It records the fastest
// try in res.SetupS and returns the mean. Set-up takes a millisecond or
// less and a fresh process makes its first few cold, while the host's
// slow spells last minutes: the fastest of a few hundred tries is the
// steadiest reading there is. Every try makes the same inputs; the timed
// call gets the last.
func setUp(rec *recorder, name string, res *repResult, fn func() error) (time.Duration, error) {
	var err error
	tries := 0
	total := rec.do(name, func() {
		for begin := time.Now(); err == nil && (tries < 5 || time.Since(begin) < 100*time.Millisecond); tries++ {
			start := time.Now()
			err = fn()
			if s := time.Since(start).Seconds(); tries == 0 || s < res.SetupS {
				res.SetupS = s
			}
		}
	})
	return total / time.Duration(tries), err
}

// runRep executes one rep of a workload in this process.
func runRep(a repArgs) (*repResult, error) {
	res := &repResult{Workload: a.workload, Variant: a.variant, Rep: a.rep}
	var rec *recorder
	if a.traced {
		rec = &recorder{workload: a.workload, rep: a.rep}
		res.Layer = map[string]float64{}
	}
	var err error
	rec.do("rep", func() {
		if a.workload == farmSweep {
			err = farmRep(a, rec, res)
		} else {
			err = scenarioRep(a, rec, res)
		}
	})
	if rec != nil {
		res.Spans = rec.spans
	}
	return res, err
}

func scenarioRep(a repArgs, rec *recorder, res *repResult) error {
	var sc harness.Scenario
	var export bool
	var dir, artifact string
	defer func() { os.RemoveAll(dir) }()
	gen, err := setUp(rec, "workload.generate", res, func() (err error) {
		if sc, export, err = scenarioFor(a); err != nil || !export {
			return err
		}
		os.RemoveAll(dir)
		dir, err = scratchDir(a.tmp)
		artifact = filepath.Join(dir, "run.jsonl")
		return err
	})
	if err != nil {
		return err
	}

	var run *harness.Result
	var runWall, exportWall time.Duration
	timed(res, func() {
		runWall = rec.do("harness.Run", func() { run = harness.Run(sc) })
		if export {
			exportWall = rec.do("obs.WriteJSONLFile", func() { err = run.Telemetry.WriteJSONLFile(artifact) })
		}
	})
	if err != nil {
		return err
	}

	rec.do("bench.check", func() {
		res.Events = run.Events
		res.Digest = flowDigest(run.Flows.Records)
		res.Attempted = len(sc.TraceFlows)
		res.Failed = res.Attempted
		for _, r := range run.Flows.Records {
			if r.Completed && r.RxBytes >= r.Size {
				res.Failed--
			}
		}
		if f := run.Forensics; f != nil {
			if n := int64(len(f.Violations)) + f.ViolationsDropped; n > 0 {
				res.Problems = append(res.Problems, fmt.Sprintf("%d auditor violations, first: %v", n, f.Violations[0]))
			}
		}
	})
	if !a.traced {
		return nil
	}

	rec.do("bench.layers", func() { scenarioLayers(res.Layer, run, runWall, gen) })
	if export {
		var size int64
		if fi, serr := os.Stat(artifact); serr == nil {
			size = fi.Size()
		}
		mb := float64(size) / 1e6
		read := rec.do("obs.ReadJSONLFile", func() { _, err = obs.ReadJSONLFile(artifact) })
		if err != nil {
			return err
		}
		res.Layer["obs.artifact_mb"] = mb
		res.Layer["obs.export_mb_per_s"] = mb / exportWall.Seconds()
		res.Layer["obs.read_mb_per_s"] = mb / read.Seconds()
		rec.do("bench.cleanup", func() { os.RemoveAll(dir) })
	}
	return nil
}

// scenarioLayers reads one traced run's per-layer quantities: counts
// from the telemetry registry, simulated results from the flow records,
// and the self-profiler's table folded by component prefix.
func scenarioLayers(m map[string]float64, run *harness.Result, runWall, gen time.Duration) {
	loop := run.WallClock.Seconds()
	m["sim.loop_s"] = loop
	m["sim.events_per_s"] = float64(run.Events) / loop
	m["harness.nonloop_s"] = (runWall - run.WallClock).Seconds()
	m["workload.gen_s"] = gen.Seconds()

	var hops, bytes float64
	for _, c := range run.Telemetry.Counters {
		if strings.HasPrefix(c.Entity, "port/") && !strings.Contains(c.Entity, "/q") {
			switch c.Metric {
			case "tx_packets":
				hops += float64(c.Value)
			case "tx_bytes":
				bytes += float64(c.Value)
			}
		}
	}
	m["netem.pkt_hops"] = hops
	if hops > 0 {
		m["netem.bytes_per_hop"] = bytes / hops
		m["sim.events_per_hop"] = float64(run.Events) / hops
	}
	m["netem.drops_red"] = float64(run.DropsRed)
	m["netem.drops_credit"] = float64(run.DropsCredit)
	m["netem.drops_other"] = float64(run.DropsOther)

	row := lake.FromRun(run.Telemetry, "", false)
	m["transport.flows"] = float64(row.Flows)
	m["transport.timeouts"] = float64(row.Timeouts)
	m["transport.retransmits"] = float64(row.Retransmits)
	m["transport.credits_issued"] = float64(row.CreditsIss)
	m["transport.credits_wasted"] = float64(row.CreditsWaste)
	m["transport.goodput_gbps"] = row.GoodputGbps
	m["transport.p99_small_fct_us"] = metrics.Percentile(run.Flows.FCTs(metrics.Small()), 0.99).Micros()
	m["transport.avg_fct_us"] = metrics.Mean(run.Flows.FCTs(metrics.Filter{})).Micros()

	var total float64
	share := map[string]float64{}
	for _, p := range run.Profile {
		total += float64(p.WallNs)
		prefix, _, _ := strings.Cut(p.Component, "/")
		share[prefix] += float64(p.WallNs)
	}
	if total > 0 {
		for _, prefix := range []string{"netem", "transport", "harness", "obs"} {
			m["prof.share."+prefix] = share[prefix] / total
		}
	}
	if f := run.Forensics; f != nil {
		var recs int64
		for _, t := range f.Timelines {
			recs += int64(len(t.Hops)) + t.HopsDropped
		}
		m["forensics.hop_records"] = float64(recs)
	}
}

// scratchDir makes a fresh directory under root, which defaults to a
// path inside the checkout the benchmark runs in.
func scratchDir(root string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, "rep-")
}

// farmPoints expands the checked-in sweep spec for one seed. The spec
// fixes schemes, fabric, faults and windows; its workload axis is
// filled here with eight trace plans — {web-search, the rpc mix} x
// load {0.5, 0.8} x seeds {seed, seed+1} — each a steadyFlows list
// written as a CSV trace, because a sweep point accepts a flow list
// only as a plan file. The spec is written to dir and parsed back, as a
// user's would be.
func farmPoints(dir string, seed int64, scale float64) ([]farm.Point, error) {
	var spec farm.Spec
	if err := json.Unmarshal(mustSpec("farm-sweep.json"), &spec); err != nil {
		return nil, err
	}
	mix, err := workload.ParsePlan(mustSpec("workload-mix.json"))
	if err != nil {
		return nil, err
	}
	// The mix keeps its Poisson and RPC sources; steadyFlows places the
	// incast events.
	mix.Sources = slices.DeleteFunc(mix.Sources, func(s workload.Source) bool { return s.Kind == workload.SrcIncast })
	sc := harness.BaseScenario(false)
	sc.Clos = farm.Topologies[spec.Topologies[0]]
	window := sim.Time(spec.DurationMS * scale * float64(sim.Millisecond))
	for _, kind := range []string{"websearch", "mix"} {
		for _, load := range []float64{0.5, 0.8} {
			for s := seed; s <= seed+1; s++ {
				sc.Seed, sc.Load = s, load
				sc.WorkloadPlan = nil
				budget, incasts := load*40e6, 0
				if kind == "mix" {
					sc.WorkloadPlan = mix
					budget, incasts = load*20e6, 2
				}
				flows, _ := steadyFlows(sc, window, int64(budget*scale), incasts)
				name := fmt.Sprintf("%s-load%g-seed%d", kind, load, s)
				var csv bytes.Buffer
				if err := workload.WriteTrace(&csv, flows); err != nil {
					return nil, err
				}
				plan := fmt.Sprintf(`{"name": %q, "sources": [{"kind": "trace", "path": %q}]}`, name, name+".csv")
				if err := errors.Join(
					os.WriteFile(filepath.Join(dir, name+".csv"), csv.Bytes(), 0o644),
					os.WriteFile(filepath.Join(dir, name+".json"), []byte(plan), 0o644)); err != nil {
					return nil, err
				}
				spec.Workloads = append(spec.Workloads, name+".json")
			}
		}
	}
	spec.Seeds = []int64{seed}
	data, err := json.Marshal(&spec)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "farm-sweep.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, err
	}
	parsed, err := farm.ParseSpecFile(path)
	if err != nil {
		return nil, err
	}
	points, err := parsed.Points()
	if err != nil {
		return nil, err
	}
	if scale < 1 { // smoke test: an evenly spaced sample of the sweep
		n := int(math.Ceil(float64(len(points)) * scale))
		sample := make([]farm.Point, 0, n)
		for i := 0; i < n; i++ {
			sample = append(sample, points[i*len(points)/n])
		}
		points = sample
	}
	return points, nil
}

const farmWorkers = 2

func farmRep(a repArgs, rec *recorder, res *repResult) error {
	dir, err := scratchDir(a.tmp)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var points []farm.Point
	gen, err := setUp(rec, "farm.ParseSpecFile+Points", res, func() (err error) {
		points, err = farmPoints(dir, a.seed, a.scale)
		return err
	})
	if err != nil {
		return err
	}
	lakeDir := filepath.Join(dir, "lake")

	var report *farm.Report
	var execWall time.Duration
	timed(res, func() {
		execWall = rec.do("farm.Execute", func() {
			report, err = farm.Execute(points, lakeDir, farm.Options{Workers: farmWorkers})
		})
	})
	if err != nil {
		return err
	}

	var ix *lake.Index
	rec.do("bench.check", func() {
		res.Attempted = len(points)
		res.Failed = len(report.Failures)
		ix, res.Problems = checkLake(lakeDir, len(points))
		if ix != nil {
			res.Events, res.Digest = lakeDigest(ix)
		}
	})
	if !a.traced || ix == nil {
		return nil
	}

	m := res.Layer
	var loopMS float64
	for i := range ix.Rows {
		loopMS += ix.Rows[i].WallMS
	}
	n := float64(len(points))
	m["sim.loop_s"] = loopMS / 1e3
	m["sim.events_per_s"] = float64(res.Events) / (loopMS / 1e3)
	m["workload.gen_s"] = gen.Seconds()
	m["harness.nonloop_s"] = execWall.Seconds() - loopMS/1e3/farmWorkers
	m["farm.points_per_min"] = n / execWall.Minutes()
	m["farm.point_overhead_ms"] = (execWall.Seconds()*1e3*farmWorkers - loopMS) / n

	resume := rec.do("farm.Execute(resume)", func() {
		report, err = farm.Execute(points, lakeDir, farm.Options{Workers: farmWorkers})
	})
	if err != nil {
		return err
	}
	if report.Skipped != len(points) {
		res.Problems = append(res.Problems, fmt.Sprintf("resume skipped %d of %d points", report.Skipped, len(points)))
	}
	m["farm.resume_s"] = resume.Seconds()

	runs := filepath.Join(lakeDir, lake.RunsDir)
	fresh := &lake.Index{}
	m["lake.ingest_s"] = rec.do("lake.IngestDir", func() { fresh.IngestDir(runs) }).Seconds()
	m["lake.query_ms"] = 1e3 * rec.do("lake.Index.Run", func() {
		_, err = fresh.Run(lake.Query{
			GroupBy: []string{"scheme", "workload"},
			Aggs:    []lake.Agg{{Col: "fct_p99_us", Fn: "mean"}, {Col: "events", Fn: "sum"}},
		})
	}).Seconds()
	if err != nil {
		return err
	}
	var diff *lake.DiffReport
	m["lake.diff_ms"] = 1e3 * rec.do("lake.Diff", func() {
		diff, err = lake.Diff(ix, ix, lake.Tolerance{}, nil)
	}).Seconds()
	if err != nil {
		return err
	}
	if !diff.Clean() || diff.Matched != len(points) {
		res.Problems = append(res.Problems, fmt.Sprintf("index differs from itself: matched %d, drifted %d", diff.Matched, diff.Drifted))
	}

	paths, _ := filepath.Glob(filepath.Join(runs, "*.jsonl"))
	var total int64
	for _, p := range paths {
		if fi, serr := os.Stat(p); serr == nil {
			total += fi.Size()
		}
	}
	m["obs.artifact_mb"] = float64(total) / 1e6
	if len(paths) > 0 {
		fi, serr := os.Stat(paths[0])
		read := rec.do("obs.ReadJSONLFile", func() { _, err = obs.ReadJSONLFile(paths[0]) })
		if err == nil && serr == nil {
			m["obs.read_mb_per_s"] = float64(fi.Size()) / 1e6 / read.Seconds()
		}
	}
	rec.do("bench.cleanup", func() { os.RemoveAll(dir) })
	return nil
}

// checkLake verifies a finished sweep: one index row per point, no
// failure log, and the first artifact (in name order) survives a
// read/write/read round trip under the name its manifest claims.
func checkLake(dir string, points int) (*lake.Index, []string) {
	var bad []string
	ix, err := lake.ReadFile(filepath.Join(dir, lake.IndexFile))
	if err != nil {
		return nil, []string{fmt.Sprintf("reading index: %v", err)}
	}
	if len(ix.Rows) != points {
		bad = append(bad, fmt.Sprintf("index has %d rows for %d points", len(ix.Rows), points))
	}
	if data, err := os.ReadFile(filepath.Join(dir, farm.FailuresFile)); err == nil && len(data) > 0 {
		bad = append(bad, fmt.Sprintf("%s is not empty", farm.FailuresFile))
	}
	paths, _ := filepath.Glob(filepath.Join(dir, lake.RunsDir, "*.jsonl"))
	if len(paths) == 0 {
		return ix, append(bad, "no artifacts")
	}
	sort.Strings(paths)
	if err := roundTrip(paths[0]); err != nil {
		bad = append(bad, fmt.Sprintf("artifact %s: %v", filepath.Base(paths[0]), err))
	}
	return ix, bad
}

func roundTrip(path string) error {
	first, err := obs.ReadJSONLFile(path)
	if err != nil {
		return err
	}
	if want := strings.TrimSuffix(filepath.Base(path), ".jsonl"); first.Manifest.Config["scenario_hash"] != want {
		return fmt.Errorf("manifest scenario_hash %q does not match the file name", first.Manifest.Config["scenario_hash"])
	}
	var a, b bytes.Buffer
	if err := first.WriteJSONL(&a); err != nil {
		return err
	}
	second, err := obs.ReadJSONL(bytes.NewReader(a.Bytes()))
	if err != nil {
		return err
	}
	if err := second.WriteJSONL(&b); err != nil {
		return err
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		return fmt.Errorf("re-written artifact differs after a second read")
	}
	return nil
}

// lakeDigest sums the events column and fingerprints every simulated
// column of the index, in row (scenario hash) order.
func lakeDigest(ix *lake.Index) (events uint64, digest string) {
	h := sha256.New()
	for i := range ix.Rows {
		r := &ix.Rows[i]
		events += uint64(r.Events)
		fmt.Fprintf(h, "%s %d %d %d %d %d %d %d %d %g %g %g\n", r.ID, r.Events, r.Flows, r.Completed,
			r.Timeouts, r.Retransmits, r.DropsRed, r.DropsTotal, r.FaultDrops,
			r.GoodputGbps, r.FCTP50Us, r.FCTP99Us)
	}
	return events, hex.EncodeToString(h.Sum(nil))
}
