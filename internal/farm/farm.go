// Package farm is the experiment orchestrator behind cmd/flexfarm: it
// expands a JSON sweep spec — lists over scheme, scheme options,
// topology, workload, load, deployment, wq, selective-drop threshold,
// fault plan, and seed —
// into the cross-product of scenarios, executes them across a worker
// pool (one harness.Run per worker), and lands every run as a
// content-addressed obs JSONL artifact ready for lake ingestion.
//
// Three properties make sweeps safe to run at scale:
//
//   - Content addressing: an artifact is named by the hash of its
//     canonicalized scenario point, so the same point always lands in
//     the same file and two spec edits never collide.
//   - Resumability: a point whose artifact already exists, parses
//     cleanly, and carries the matching scenario hash in its manifest
//     is skipped; corrupt or mismatched artifacts are re-run in place.
//   - Failure isolation: a panicking or erroring scenario becomes a
//     failure record in failures.jsonl — it never kills the sweep.
package farm

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flexpass/internal/faults"
	"flexpass/internal/harness"
	"flexpass/internal/lake"
	"flexpass/internal/obs"
	"flexpass/internal/planspec"
	"flexpass/internal/sim"
	"flexpass/internal/topo"
	"flexpass/internal/transport/schemes"
	"flexpass/internal/units"
	"flexpass/internal/workload"
)

// Topologies names the fabrics a sweep spec may reference. A Clos runs
// on the §6.2 base, a testbed layout on the §6.1 one (harness.BaseFor).
var Topologies = map[string]topo.Layout{
	// tiny: 4 hosts in 2 racks — for orchestrator tests and smoke sweeps.
	"tiny": topo.ClosParams{Pods: 2, AggPerPod: 1, TorPerPod: 1, HostsPerTor: 2, Cores: 1},
	// small: the repo's scaled 48-host Clos (tests and benchmarks).
	"small": topo.SmallClos,
	// paper: the §6.2 192-host fabric.
	"paper": topo.PaperClos,
	// big: the 768-host fabric for parallel-engine scaling runs.
	"big": topo.BigClos,
	// The §6.1 testbed shapes of Figs 1, 7, 8 and 9: hosts l0, l1, ...
	// and r0, r1, ... across one bottleneck (pair i is one deployment
	// group), and n hosts on one switch (each its own group).
	"dumbbell2":  topo.DumbbellLayout{Left: 2, Right: 2},
	"dumbbell32": topo.DumbbellLayout{Left: 32, Right: 32},
	"single3":    topo.SingleSwitchLayout{N: 3},
	"single9":    topo.SingleSwitchLayout{N: 9},
}

// Spec is a JSON sweep specification. Every list axis cross-multiplies;
// empty axes default to one neutral value, so a minimal spec is just
// {"scheme": ["flexpass"]}.
type Spec struct {
	Name string `json:"name,omitempty"`

	Schemes    []string            `json:"scheme"`
	Options    []map[string]string `json:"options,omitempty"`  // per-scheme option maps; default [{}]
	Topologies []string            `json:"topology,omitempty"` // default ["small"]
	// Workloads axis entries are distribution names ("websearch"),
	// workload-plan files (*.json) or flow traces (*.csv), see
	// resolveWorkload. Plan and trace entries enter the point identity by
	// content hash, so renaming the file does not re-run the sweep.
	Workloads   []string  `json:"workload,omitempty"`   // default ["websearch"]
	Loads       []float64 `json:"load,omitempty"`       // default [0.5]
	Deployments []float64 `json:"deployment,omitempty"` // default [0.5]
	WQs         []float64 `json:"wq,omitempty"`         // default [0.5]
	// RedKBs sweeps the FlexPass Q1 selective-dropping threshold in kB
	// (topo.Spec.FlexRed); default [0] = the profile's own.
	RedKBs []int64 `json:"red_kb,omitempty"`
	Seeds  []int64 `json:"seed,omitempty"`   // default [1]
	Shards []int   `json:"shards,omitempty"` // parallel-engine shard counts; default [0] = single engine

	// Faults lists fault timelines: "" (or omitted) is a clean run, a
	// path ending in .json is a plan file, anything else is the
	// faults.ParseSpec CLI shorthand.
	Faults []string `json:"fault,omitempty"`

	DurationMS float64 `json:"duration_ms,omitempty"` // arrival window; default 2
	// DrainMS is the time past the arrival window; omitted, 5x duration.
	// 0 is no drain: the run ends with the window.
	DrainMS        *float64 `json:"drain_ms,omitempty"`
	IncastFraction float64  `json:"incast,omitempty"`
	// Queues samples Q1 occupancy at the ToR uplinks of every point
	// (harness.Scenario.SampleQueues), for the lake's q1_* columns.
	Queues bool `json:"queues,omitempty"`

	// baseDir anchors relative plan-file entries (workload and fault
	// axes) when the spec came from a file, so checked-in specs work
	// from any working directory. ParseSpec (bytes) leaves it empty:
	// paths then resolve against the process cwd.
	baseDir string
	// wplans and fplans hold each workload and fault entry resolved, by
	// entry: Validate reads an entry's files once and Points reuses the
	// plan, so a file edited after parsing does not reach the points.
	wplans map[string]*workload.Plan
	fplans map[string]*faults.Plan
}

// resolvePath anchors a relative plan-file path at the spec's directory.
func (s *Spec) resolvePath(p string) string {
	if s.baseDir == "" || filepath.IsAbs(p) {
		return p
	}
	return filepath.Join(s.baseDir, p)
}

// ParseSpec decodes and validates a sweep spec. Unknown fields are
// rejected so a typo'd axis fails loudly instead of sweeping nothing.
func ParseSpec(data []byte) (*Spec, error) {
	return parseSpec(data, "")
}

func parseSpec(data []byte, baseDir string) (*Spec, error) {
	var s Spec
	if err := planspec.DecodeStrict(data, &s); err != nil {
		return nil, fmt.Errorf("farm: bad sweep spec: %w", err)
	}
	s.baseDir = baseDir
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// ParseSpecFile reads and validates the sweep spec at path, defaulting
// the sweep name to the file stem. Relative plan-file entries in the
// workload and fault axes resolve against the spec file's directory.
func ParseSpecFile(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := parseSpec(data, filepath.Dir(path))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.Name == "" {
		s.Name = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	}
	return s, nil
}

// CheckNames validates scheme, topology and workload-distribution names
// against the tables a scenario resolves them in — the one check behind
// sweep specs (and so flexsim's flags), chaos specs and repros. The
// error names what is known.
func CheckNames(schemeNames, topologies, workloads []string) error {
	registered := schemes.Names()
	for _, sch := range schemeNames {
		if !slices.Contains(registered, sch) {
			return fmt.Errorf("unknown scheme %q (registered: %s)", sch, strings.Join(registered, ", "))
		}
	}
	for _, t := range topologies {
		if _, ok := Topologies[t]; !ok {
			known := make([]string, 0, len(Topologies))
			for name := range Topologies {
				known = append(known, name)
			}
			sort.Strings(known)
			return fmt.Errorf("unknown topology %q (want %s)", t, strings.Join(known, ", "))
		}
	}
	for _, w := range workloads {
		if workload.ByName(w) == nil {
			return fmt.Errorf("unknown workload %q", w)
		}
	}
	return nil
}

// Validate checks every axis value against its registry: scheme names,
// scheme options, topology labels, workload names, probability-like
// knobs, and fault entries. Plan and trace files are parsed here, so a
// broken plan fails the spec, not the sweep, and the spec keeps what
// they resolved to for Points.
func (s *Spec) Validate() error {
	if len(s.Schemes) == 0 {
		return fmt.Errorf("farm: spec has no schemes")
	}
	var named []string // workload axis entries that are not plan or trace files
	for _, w := range s.Workloads {
		if p, err := s.resolveWorkload(w); err != nil {
			return fmt.Errorf("farm: workload plan %q: %w", w, err)
		} else if p == nil {
			named = append(named, w)
		}
	}
	if err := CheckNames(s.Schemes, s.Topologies, named); err != nil {
		return fmt.Errorf("farm: %w", err)
	}
	for _, o := range s.Options {
		if err := schemes.CheckOptions(o); err != nil {
			return fmt.Errorf("farm: %w", err)
		}
	}
	// The range checks are written so that NaN fails them.
	for _, l := range s.Loads {
		if !(l > 0 && l <= 1) {
			return fmt.Errorf("farm: load %g outside (0,1]", l)
		}
	}
	for _, d := range s.Deployments {
		if !(d >= 0 && d <= 1) {
			return fmt.Errorf("farm: deployment %g outside [0,1]", d)
		}
	}
	for _, w := range s.WQs {
		if !(w > 0 && w < 1) {
			return fmt.Errorf("farm: wq %g outside (0,1)", w)
		}
	}
	if !(s.IncastFraction >= 0 && s.IncastFraction < 1) {
		return fmt.Errorf("farm: incast %g outside [0,1)", s.IncastFraction)
	}
	for _, r := range s.RedKBs {
		if r < 0 {
			return fmt.Errorf("farm: red_kb %d negative", r)
		}
	}
	if d := s.DurationMS; math.IsNaN(d) || math.IsInf(d, 0) || d < 0 {
		return fmt.Errorf("farm: duration %g ms not finite and non-negative", d)
	}
	if d := s.DrainMS; d != nil && (math.IsNaN(*d) || math.IsInf(*d, 0) || *d < 0) {
		return fmt.Errorf("farm: drain %g ms not finite and non-negative", *d)
	}
	for _, n := range s.Shards {
		if n < 0 {
			return fmt.Errorf("farm: shards %d negative", n)
		}
	}
	for _, f := range s.Faults {
		if _, err := s.resolveFault(f); err != nil {
			return fmt.Errorf("farm: fault %q: %w", f, err)
		}
	}
	return nil
}

// resolveFault turns a spec fault entry into a plan: "" is a clean run
// (nil plan), a *.json path a plan file, anything else the CLI shorthand.
func (s *Spec) resolveFault(entry string) (*faults.Plan, error) {
	return memo(&s.fplans, entry, func() (*faults.Plan, error) {
		switch {
		case entry == "":
			return nil, nil
		case strings.HasSuffix(entry, ".json"):
			return faults.ParsePlanFile(s.resolvePath(entry))
		}
		return faults.ParseSpec(entry)
	})
}

// resolveWorkload turns a spec workload entry into a plan: a *.json path
// is a plan file, a *.csv path a flow trace — a one-source trace plan
// named by the file stem, which names and hashes like a plan file
// wrapping it — and anything else a distribution name (nil plan).
func (s *Spec) resolveWorkload(entry string) (*workload.Plan, error) {
	return memo(&s.wplans, entry, func() (*workload.Plan, error) {
		path := s.resolvePath(entry)
		switch filepath.Ext(entry) {
		case ".json":
			return workload.ParsePlanFile(path)
		case ".csv":
			p := &workload.Plan{
				Name:    strings.TrimSuffix(filepath.Base(path), ".csv"),
				Sources: []workload.Source{{Kind: workload.SrcTrace, Path: path}},
			}
			return p, p.Resolve("")
		}
		return nil, nil
	})
}

// memo returns the plan cache holds for entry, resolving and keeping it
// the first time; a failed resolution is not kept.
func memo[P any](cache *map[string]*P, entry string, resolve func() (*P, error)) (*P, error) {
	if p, ok := (*cache)[entry]; ok {
		return p, nil
	}
	p, err := resolve()
	if err != nil {
		return nil, err
	}
	if *cache == nil {
		*cache = map[string]*P{}
	}
	(*cache)[entry] = p
	return p, nil
}

// Point is one expanded scenario of a sweep: the coordinates on every
// axis. Its canonical JSON form is the content address of the run.
type Point struct {
	Sweep   string            `json:"sweep,omitempty"`
	Scheme  string            `json:"scheme"`
	Options map[string]string `json:"options,omitempty"`
	Topo    string            `json:"topology"`
	// Workload is the spec entry: a distribution name, or a plan or
	// trace file path kept for display; WorkloadHash is the resolved plan's content
	// hash and, when set, the part that enters the identity (so a
	// renamed plan file with the same sources is the same point).
	Workload     string  `json:"workload"`
	WorkloadHash string  `json:"workload_hash,omitempty"`
	Load         float64 `json:"load"`
	Deployment   float64 `json:"deployment"`
	WQ           float64 `json:"wq"`
	Seed         int64   `json:"seed"`
	// Shards selects the parallel engine (0 = single engine). Omitted
	// when zero so pre-sharding point hashes are unchanged.
	Shards int `json:"shards,omitempty"`
	// Fault is the spec entry for display; FaultHash is the resolved
	// plan's content hash and the part that enters the identity (so a
	// renamed plan file with the same timeline is the same point).
	Fault     string `json:"fault,omitempty"`
	FaultHash string `json:"fault_hash,omitempty"`

	DurationMS     float64 `json:"duration_ms"`
	DrainMS        float64 `json:"drain_ms"`
	IncastFraction float64 `json:"incast,omitempty"`
	// RedKB overrides the Q1 selective-dropping threshold (0 = the
	// profile's); Queues samples Q1 occupancy. Both are omitted when
	// unset, so the hashes of points without them are unchanged.
	RedKB  int64 `json:"red_kb,omitempty"`
	Queues bool  `json:"queues,omitempty"`

	plan  *faults.Plan
	wplan *workload.Plan
}

// Hash is the point's content address: sha256 over the canonical JSON
// form with the display-only fault and workload-plan entries blanked
// (their identities ride on FaultHash / WorkloadHash). Go marshals
// struct fields in declaration order and maps with sorted keys, so the
// encoding is canonical.
func (p Point) Hash() string {
	p.Fault = ""
	p.plan = nil
	p.wplan = nil
	if p.WorkloadHash != "" {
		p.Workload = ""
	}
	b, err := json.Marshal(p)
	if err != nil {
		panic(fmt.Sprintf("farm: hashing point: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:12])
}

// Label is a compact human identity for logs and failure records.
func (p Point) Label() string {
	l := fmt.Sprintf("%s/%s/%s load=%g dep=%g wq=%g seed=%d",
		p.Scheme, p.Topo, p.Workload, p.Load, p.Deployment, p.WQ, p.Seed)
	if len(p.Options) > 0 {
		l += " " + lake.OptionsString(p.Options)
	}
	if p.Fault != "" {
		l += " fault=" + p.Fault
	}
	if p.RedKB > 0 {
		l += fmt.Sprintf(" red_kb=%d", p.RedKB)
	}
	if p.Shards > 0 {
		l += fmt.Sprintf(" shards=%d", p.Shards)
	}
	return l
}

// Scenario builds the harness scenario for the point, stamping the
// scenario hash, topology label, and sweep name into the manifest so
// the lake can key on them.
func (p Point) Scenario() harness.Scenario {
	sc := harness.BaseFor(Topologies[p.Topo])
	sc.Scheme = harness.Scheme(p.Scheme)
	sc.SchemeOptions = p.Options
	if p.wplan != nil {
		sc.Workload = nil
		sc.WorkloadPlan = p.wplan
	} else {
		sc.Workload = workload.ByName(p.Workload)
	}
	sc.Load = p.Load
	sc.Deployment = p.Deployment
	sc.WQ = p.WQ
	sc.Seed = p.Seed
	sc.Shards = p.Shards
	sc.Duration = sim.Time(p.DurationMS * float64(sim.Millisecond))
	sc.Drain = sim.Time(p.DrainMS * float64(sim.Millisecond))
	sc.IncastFraction = p.IncastFraction
	sc.SampleQueues = p.Queues
	sc.FaultPlan = p.plan
	sc.Telemetry = &obs.Options{}
	sc.ManifestConfig = map[string]string{
		"scenario_hash": p.Hash(),
		"topo":          p.Topo,
		"sweep":         p.Sweep,
	}
	if p.RedKB > 0 {
		sc.Spec.FlexRed = units.ByteSize(p.RedKB) * units.KB
		sc.ManifestConfig["red_kb"] = strconv.FormatInt(p.RedKB, 10)
	}
	return sc
}

// orDefault returns the axis or its single-value default.
func orDefault[T any](axis []T, def T) []T {
	if len(axis) == 0 {
		return []T{def}
	}
	return axis
}

// Points expands the spec's cross-product in a fixed axis order
// (scheme, options, topology, workload, load, deployment, wq, red_kb,
// fault, seed, shards). An entry Validate resolved is not read again.
func (s *Spec) Points() ([]Point, error) {
	opts := s.Options
	if len(opts) == 0 {
		opts = []map[string]string{nil}
	}
	topos := orDefault(s.Topologies, "small")
	wls := orDefault(s.Workloads, "websearch")
	loads := orDefault(s.Loads, 0.5)
	deps := orDefault(s.Deployments, 0.5)
	wqs := orDefault(s.WQs, 0.5)
	reds := orDefault(s.RedKBs, 0)
	seeds := orDefault(s.Seeds, 1)
	shards := orDefault(s.Shards, 0)
	fault := orDefault(s.Faults, "")

	durMS := s.DurationMS
	if durMS == 0 {
		durMS = 2
	}
	drainMS := 5 * durMS
	if s.DrainMS != nil {
		drainMS = *s.DrainMS
	}

	plans := make([]*faults.Plan, len(fault))
	hashes := make([]string, len(fault))
	for i, f := range fault {
		p, err := s.resolveFault(f)
		if err != nil {
			return nil, fmt.Errorf("farm: fault %q: %w", f, err)
		}
		plans[i], hashes[i] = p, p.Hash()
	}
	wplans := make([]*workload.Plan, len(wls))
	whashes := make([]string, len(wls))
	for i, w := range wls {
		p, err := s.resolveWorkload(w)
		if err != nil {
			return nil, fmt.Errorf("farm: workload plan %q: %w", w, err)
		}
		wplans[i], whashes[i] = p, p.Hash()
	}

	var pts []Point
	for _, sch := range s.Schemes {
		for _, opt := range opts {
			for _, tp := range topos {
				for wi, wl := range wls {
					for _, load := range loads {
						for _, dep := range deps {
							for _, wq := range wqs {
								for _, red := range reds {
									for fi, f := range fault {
										for _, seed := range seeds {
											for _, nsh := range shards {
												pts = append(pts, Point{
													Sweep: s.Name, Scheme: sch, Options: opt,
													Topo: tp, Workload: wl,
													WorkloadHash: whashes[wi],
													Load:         load, Deployment: dep, WQ: wq,
													Seed: seed, Shards: nsh,
													Fault: f, FaultHash: hashes[fi],
													DurationMS: durMS, DrainMS: drainMS,
													RedKB: red, Queues: s.Queues,
													IncastFraction: s.IncastFraction,
													plan:           plans[fi],
													wplan:          wplans[wi],
												})
											}
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return pts, nil
}

// Failure is one isolated scenario failure, recorded in
// failures.jsonl. ElapsedMS, the wall-clock cost of the run, makes a
// timed-out point auditable after a soak.
type Failure struct {
	Hash      string  `json:"hash"`
	Label     string  `json:"label"`
	Point     Point   `json:"point"`
	Error     string  `json:"error"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// Report summarizes one Execute call.
type Report struct {
	Total    int       // points in the sweep
	Ran      int       // executed this call
	Skipped  int       // valid artifact already present
	Canceled bool      // the context was canceled before every point was dispatched
	Failures []Failure // failed this call
}

// Options tunes Execute.
type Options struct {
	Workers int  // worker pool size; <=0 means GOMAXPROCS
	Force   bool // re-run points even when a valid artifact exists
	// Progress, when non-nil, receives one typed event per point
	// transition: started when a worker picks a point up, then exactly
	// one of ran / skipped / failed. Execute invokes it concurrently
	// from worker goroutines — it must be safe for concurrent use
	// (Tracker.Observe is; compose consumers with Fanout).
	Progress func(ProgressEvent)

	// PointTimeout, when positive, is the one per-point guard: the
	// scenario runs under a Deadline of this much wall clock, which its
	// engines enforce at their watch poll, and a wedge backstop at ~2x
	// abandons a run whose engines never reach that poll (blocked
	// outside the dispatch loop). A timed-out point becomes an ordinary
	// failure; the sweep continues. A failing point is not re-run: a
	// scenario is deterministic and fails the same way every time.
	PointTimeout time.Duration

	// Ctx, when non-nil, cancels the sweep cooperatively: once done, no
	// new point is dispatched, but in-flight points drain,
	// failures.jsonl is flushed, and the index is rebuilt — so an
	// interrupted sweep resumes exactly where it stopped. Nil means run
	// to completion.
	Ctx context.Context
}

// Execute runs every point against the lake directory layout
// (<dir>/runs/<hash>.jsonl), resuming past valid artifacts, isolating
// failures, and finally rebuilding <dir>/index.json. The failure log
// is rewritten each call to hold exactly the still-failing points.
// The index comes from the runs Execute holds — the run a point wrote,
// or the decode that validated a skipped one, so a resume decodes each
// artifact once. Only artifacts it did not produce (other sweeps',
// stale, damaged) are ingested from disk; index.json is exactly what
// lake.Load rebuilds from runs/.
func Execute(points []Point, dir string, opt Options) (*Report, error) {
	runsDir := filepath.Join(dir, lake.RunsDir)
	if err := os.MkdirAll(runsDir, 0o755); err != nil {
		return nil, err
	}
	progress := opt.Progress
	if progress == nil {
		progress = func(ProgressEvent) {}
	}

	ctx := opt.Ctx
	if ctx == nil {
		ctx = context.Background()
	}

	rep := &Report{Total: len(points)}
	var mu sync.Mutex
	rows := map[string]lake.Row{} // by artifact path, for the runs this call holds
	dispatched := harness.Each(ctx, opt.Workers, len(points), func(worker, i int) {
		pt := points[i]
		hash := pt.Hash()
		label := pt.Label()
		path := filepath.Join(runsDir, hash+".jsonl")
		var run *obs.Run
		if !opt.Force {
			run = validArtifact(path, hash)
		}
		if run != nil {
			mu.Lock()
			rep.Skipped++
			rows[path] = lake.FromRun(run, path, false)
			mu.Unlock()
			progress(ProgressEvent{Kind: EventSkipped, Worker: worker, Hash: hash, Label: label})
			return
		}
		progress(ProgressEvent{Kind: EventStarted, Worker: worker, Hash: hash, Label: label})
		start := time.Now()
		run, err := runPoint(pt, path, opt.PointTimeout)
		elapsed := time.Since(start)
		mu.Lock()
		if err != nil {
			rep.Failures = append(rep.Failures, Failure{
				Hash: hash, Label: label, Point: pt, Error: err.Error(),
				ElapsedMS: float64(elapsed) / float64(time.Millisecond),
			})
			mu.Unlock()
			progress(ProgressEvent{Kind: EventFailed, Worker: worker, Hash: hash, Label: label,
				Err: err.Error(), Elapsed: elapsed})
			return
		}
		rep.Ran++
		rows[path] = lake.FromRun(run, path, false)
		mu.Unlock()
		progress(ProgressEvent{Kind: EventRan, Worker: worker, Hash: hash, Label: label, Elapsed: elapsed})
	})
	rep.Canceled = dispatched < len(points)

	sort.Slice(rep.Failures, func(i, j int) bool { return rep.Failures[i].Hash < rep.Failures[j].Hash })
	if err := writeFailures(filepath.Join(dir, FailuresFile), rep.Failures); err != nil {
		return rep, err
	}
	paths, err := filepath.Glob(filepath.Join(runsDir, "*.jsonl")) // sorted, like IngestDir
	if err != nil {
		return rep, err
	}
	ix := &lake.Index{}
	for _, p := range paths {
		if row, ok := rows[p]; ok {
			ix.Rows = append(ix.Rows, row)
		} else if err := ix.IngestFile(p); err != nil {
			return rep, fmt.Errorf("farm: indexing: %v", err)
		}
	}
	ix.Sort()
	if err := ix.WriteTo(dir); err != nil {
		return rep, err
	}
	return rep, nil
}

// FailuresFile names the per-lake failure log.
const FailuresFile = "failures.jsonl"

// validArtifact returns the artifact at path, decoded, if the point can
// resume past it: it must parse cleanly end-to-end and its manifest must
// carry the expected scenario hash. Anything else — missing, torn
// mid-write, or from a different spec revision — is nil and re-run.
func validArtifact(path, hash string) *obs.Run {
	run, err := obs.ReadJSONLFile(path)
	if err != nil || run == nil || run.Manifest.Config["scenario_hash"] != hash {
		return nil
	}
	return run
}

// runScenario is the harness entry point, indirected so tests can
// substitute a hung or failing scenario without building one out of
// simulator primitives.
var runScenario = harness.Run

// runPoint executes one scenario and lands its artifact atomically
// (tmp + rename), returning the run it wrote. A timeout is the
// scenario's Deadline, which its engines enforce themselves at their
// watch poll, plus a hard backstop at ~2x that abandons the worker
// goroutine entirely if the run wedged where no poll is reached; an
// abandoned run is barred from landing its artifact, so a timed-out
// point never masquerades as a completed one.
func runPoint(pt Point, path string, timeout time.Duration) (*obs.Run, error) {
	if timeout <= 0 {
		return executePoint(pt, path, 0, nil)
	}
	backstop := 2 * timeout
	if backstop < timeout+time.Second {
		backstop = timeout + time.Second
	}
	var abandoned atomic.Bool
	var run *obs.Run // written before done is sent, read only after it arrives
	done := make(chan error, 1)
	go func() {
		var err error
		run, err = executePoint(pt, path, timeout, &abandoned)
		done <- err
	}()
	timer := time.NewTimer(backstop)
	defer timer.Stop()
	select {
	case err := <-done:
		return run, err
	case <-timer.C:
		abandoned.Store(true)
		return nil, fmt.Errorf("point wedged: no result after %v (deadline %v; no engine reached its watch poll)", backstop, timeout)
	}
}

// executePoint runs the scenario under harness.Try, so a scenario
// contract violation or a deadline/stall kill is this point's error.
func executePoint(pt Point, path string, deadline time.Duration, abandoned *atomic.Bool) (*obs.Run, error) {
	sc := pt.Scenario()
	sc.Deadline = deadline
	res, err := harness.Try(runScenario, sc)
	if err != nil {
		return nil, err
	}
	if res.Telemetry == nil {
		return nil, fmt.Errorf("run produced no telemetry artifact")
	}
	if abandoned != nil && abandoned.Load() {
		return nil, fmt.Errorf("run finished after the backstop abandoned it; artifact discarded")
	}
	tmp := path + ".tmp"
	if err := res.Telemetry.WriteJSONLFile(tmp); err != nil {
		os.Remove(tmp)
		return nil, err
	}
	if err := os.Rename(tmp, path); err != nil {
		return nil, err
	}
	return res.Telemetry, nil
}

// writeFailures rewrites the failure log (one JSON object per line).
// An empty failure set removes the file, so a fully clean resume
// leaves no stale log behind.
func writeFailures(path string, failures []Failure) error {
	if len(failures) == 0 {
		err := os.Remove(path)
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, fl := range failures {
		if err := enc.Encode(fl); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
