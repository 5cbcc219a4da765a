// Command bench is the repository's standing benchmark: five named
// workloads, six end-to-end metrics each, and (with -trace 1) a
// per-layer cost ledger. It drives the simulator only through public
// entry points and claims nothing; see README.md for the protocol.
//
//	go run ./bench                         # every workload, untraced
//	go run ./bench -trace 1 -ledger l.json # plus per-layer metrics and spans
//	go run ./bench -workload clos-mixed -reps 3
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	"flexpass/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload string
	seed     int64
	seconds  float64
	reps     int
	trace    int
	traceOut string
	ledger   string
	scale    float64
	tmp      string

	child   bool
	variant string
	rep     int
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run only this workload (default: all five, round-robin)")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed, the only input")
	fs.Float64Var(&o.seconds, "seconds", 20, "time budget per workload for its reps")
	fs.IntVar(&o.reps, "reps", 0, "fixed reps per workload (default: as many as fit in -seconds)")
	fs.IntVar(&o.trace, "trace", 0, "1 adds the traced pass: per-layer metrics and the span file")
	fs.StringVar(&o.traceOut, "trace-out", "", "span file, Chrome trace JSON (default <tmp>/spans.json)")
	fs.StringVar(&o.ledger, "ledger", "", "also write the numbers in cmd/benchjson's artifact shape")
	fs.Float64Var(&o.scale, "scale", 1, "shrink every workload; for smoke tests, numbers are not comparable")
	fs.StringVar(&o.tmp, "tmp", filepath.Join(".bench_build", "tmp"), "scratch directory")
	fs.BoolVar(&o.child, "child", false, "internal: run one rep and print its result")
	fs.StringVar(&o.variant, "variant", "", "internal: workload variant of a child")
	fs.IntVar(&o.rep, "rep", 0, "internal: rep number of a child")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	var err error
	if o.child {
		err = childMain(o, stdout)
	} else {
		err = parentMain(o, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// childMain runs one rep (or the unit-cost drivers) and prints the
// result as one JSON line.
func childMain(o options, stdout io.Writer) error {
	var res *repResult
	var err error
	if o.workload == unitsName {
		rec := &recorder{workload: unitsName}
		res = &repResult{Workload: unitsName}
		rec.do("rep", func() { res.Layer, err = unitCosts(rec, o.scale) })
		res.Spans = rec.spans
	} else {
		res, err = runRep(repArgs{workload: o.workload, variant: o.variant, seed: o.seed,
			rep: o.rep, scale: o.scale, traced: o.trace == 1, tmp: o.tmp})
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(res)
}

// unitsName labels the unit-cost pass where a workload name goes.
const unitsName = "units"

// childProcs is the GOMAXPROCS every child runs with, whatever the host
// has: two shards and two farm workers need two, and the single-engine
// runs should not see a different garbage collector on a bigger box.
const childProcs = 2

// spawn re-executes this binary as a child for one rep, with nothing
// else running, and adds the child's rusage.
func spawn(o options, workload, variant string, rep int, traced bool) (*repResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	// Two minutes is 20x the slowest rep: only a wedged child hits it.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", workload, "-variant", variant,
		"-rep", strconv.Itoa(rep), "-seed", strconv.FormatInt(o.seed, 10), "-trace", trace,
		"-scale", strconv.FormatFloat(o.scale, 'g', -1, 64), "-tmp", o.tmp)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(childProcs))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s rep %d: %w", workload, rep, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	res := &repResult{}
	if err := json.Unmarshal(lines[len(lines)-1], res); err != nil {
		return nil, fmt.Errorf("%s rep %d: bad result line: %w", workload, rep, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.CPUS = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
		res.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KB
	}
	return res, nil
}

// workloadRun accumulates everything measured for one workload.
type workloadRun struct {
	def      *workloadDef
	reps     []*repResult          // untraced reps, the end-to-end numbers
	ref      *repResult            // the def.reference run, if the workload has one
	traced   *repResult            // the traced rep
	variants map[string]*repResult // traced pass: observer toggles, shard pair
	spent    time.Duration         // wall time of this workload's children so far
	lastRep  time.Duration         // wall time of its latest child
}

// wantsRep decides whether the workload takes another untraced rep.
func (w *workloadRun) wantsRep(o options) bool {
	n := len(w.reps)
	switch {
	case o.reps > 0:
		return n < o.reps
	case n < w.def.minReps:
		return true
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	if o.trace == 1 {
		budget /= 2 // the traced pass needs the other half
	}
	return w.spent+w.lastRep <= budget
}

func parentMain(o options, stdout io.Writer) error {
	var runs []*workloadRun
	for i := range workloads {
		def := &workloads[i]
		if o.workload != "" && o.workload != def.name {
			continue
		}
		if def.needs2 && runtime.NumCPU() < 2 {
			return fmt.Errorf("%s needs 2 cpus, this host has %d", def.name, runtime.NumCPU())
		}
		runs = append(runs, &workloadRun{def: def, variants: map[string]*repResult{}})
	}
	if len(runs) == 0 {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.scale <= 0 || o.scale > 1 {
		return fmt.Errorf("-scale %g is outside (0, 1]", o.scale)
	}
	var rec *recorder
	if o.trace == 1 {
		rec = &recorder{}
	}
	// child runs one child process under an "exec" span and books its time.
	child := func(w *workloadRun, name, variant string, rep int, traced bool) (*repResult, error) {
		var res *repResult
		var err error
		if rec != nil {
			rec.workload, rec.rep = name, rep
		}
		took := rec.do("exec", func() {
			if res, err = spawn(o, name, variant, rep, traced); err == nil {
				rec.adopt(res.Spans)
				res.Spans = nil
			}
		})
		if w != nil {
			w.spent += took
			w.lastRep = took
		}
		return res, err
	}

	// Untraced pass, round-robin: rep 1 of every workload, then rep 2, ...
	// so slow drift of the host lands on all workloads alike.
	for _, w := range runs {
		if w.def.reference != "" {
			var err error
			if w.ref, err = child(w, w.def.name, w.def.reference, 0, false); err != nil {
				return err
			}
		}
	}
	for more := true; more; {
		more = false
		for _, w := range runs {
			if !w.wantsRep(o) {
				continue
			}
			res, err := child(w, w.def.name, "", len(w.reps)+1, false)
			if err != nil {
				return err
			}
			w.reps = append(w.reps, res)
			more = true
		}
	}

	// Traced pass: never mixed into the end-to-end numbers.
	var units map[string]float64
	if o.trace == 1 {
		res, err := child(nil, unitsName, "", 0, true)
		if err != nil {
			return err
		}
		units = res.Layer
		for _, w := range runs {
			if w.traced, err = child(w, w.def.name, "", len(w.reps)+1, true); err != nil {
				return err
			}
			for _, v := range w.def.variants {
				if w.variants[v], err = child(w, w.def.name, v, 0, false); err != nil {
					return err
				}
			}
		}
	}

	var spans []span
	if rec != nil {
		spans = rec.spans
	}
	return report(o, runs, units, spans, stdout)
}

// report summarizes the runs, prints every metric by name with its
// unit, writes the span file and the ledger, and returns an error (so
// the command exits non-zero) when any correctness check failed.
func report(o options, runs []*workloadRun, units map[string]float64, spans []span, stdout io.Writer) error {
	sum := summary{Seed: o.seed, CPUs: runtime.NumCPU(), GOMAXPROCS: childProcs, GoOS: runtime.GOOS,
		GoArch: runtime.GOARCH, Revision: obs.RepoRevision(), Scale: o.scale, Workloads: map[string]*workloadSummary{}}
	ok := true
	for _, w := range runs {
		ws := w.summarize(units)
		sum.Workloads[w.def.name] = ws
		ok = ok && ws.Correct
		ws.print(stdout, w.def.name)
	}
	if o.trace == 1 {
		if bad := checkSpans(spans); len(bad) > 0 {
			ok = false
			for _, b := range bad {
				fmt.Fprintf(stdout, "FAIL trace: %s\n", b)
			}
		}
		path := o.traceOut
		if path == "" {
			path = filepath.Join(o.tmp, "spans.json")
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		if err := writeChromeTrace(path, spans); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %d spans to %s\n", len(spans), path)
	}
	if o.ledger != "" {
		if err := writeLedger(o.ledger, &sum); err != nil {
			return err
		}
	}
	line, err := json.Marshal(&sum)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if len(runs) == 1 {
		// One workload selected: end with the result object the
		// benchmark driver reads (BENCHMARK.json's contract).
		if line, err = json.Marshal(sum.Workloads[runs[0].def.name].result(o.trace == 1)); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if !ok {
		return fmt.Errorf("a correctness check failed")
	}
	return nil
}

// summary is the machine-readable form of one invocation. Claim stays
// null: this benchmark measures, it does not argue.
type summary struct {
	Seed       int64                       `json:"seed"`
	CPUs       int                         `json:"cpus"`
	GOMAXPROCS int                         `json:"gomaxprocs"`
	GoOS       string                      `json:"goos"`
	GoArch     string                      `json:"goarch"`
	Revision   string                      `json:"revision,omitempty"`
	Scale      float64                     `json:"scale"`
	Workloads  map[string]*workloadSummary `json:"workloads"`
	Claim      *string                     `json:"claim"`
}

type workloadSummary struct {
	Reps      int                `json:"reps"`
	Correct   bool               `json:"correct"`
	Problems  []string           `json:"problems,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Digest    string             `json:"digest"`
	Metrics   map[string]float64 `json:"metrics"` // the end-to-end metrics and wall_s
	WallS     [3]float64         `json:"wall_s_min_median_max"`
	Layer     map[string]float64 `json:"layer,omitempty"`
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

func column(reps []*repResult, get func(*repResult) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = get(r)
	}
	return out
}

// summarize folds the reps into the end-to-end metrics, runs the
// cross-rep correctness checks, and assembles the layer table.
func (w *workloadRun) summarize(units map[string]float64) *workloadSummary {
	first := w.reps[0]
	walls := column(w.reps, func(r *repResult) float64 { return r.WallS })
	sort.Float64s(walls)
	ws := &workloadSummary{
		Reps: len(w.reps), Attempted: first.Attempted, Failed: first.Failed, Digest: first.Digest,
		WallS: [3]float64{walls[0], median(walls), walls[len(walls)-1]},
		Metrics: map[string]float64{
			"setup_s": median(column(w.reps, func(r *repResult) float64 { return r.SetupS })),
			// Interference only adds time to a deterministic run, so the
			// minimum over interleaved reps is the steadiest host time.
			wallMetric.name: walls[0],
			"events":        float64(first.Events),
			"allocs":        median(column(w.reps, func(r *repResult) float64 { return float64(r.Allocs) })),
			"alloc_mb":      median(column(w.reps, func(r *repResult) float64 { return r.AllocMB })),
			"peak_rss_mb":   median(column(w.reps, func(r *repResult) float64 { return r.PeakRSSMB })),
		},
	}
	var problems []string
	all := append([]*repResult(nil), w.reps...)
	if w.traced != nil {
		all = append(all, w.traced)
	}
	for _, r := range all {
		for _, p := range r.Problems {
			problems = append(problems, fmt.Sprintf("rep %d: %s", r.Rep, p))
		}
	}
	for _, r := range w.reps[1:] {
		if r.Digest != first.Digest || r.Events != first.Events {
			problems = append(problems, fmt.Sprintf("rep %d: digest %.12s events %d, rep 1: digest %.12s events %d",
				r.Rep, r.Digest, r.Events, first.Digest, first.Events))
		}
	}
	if w.ref != nil && w.ref.Digest != first.Digest {
		problems = append(problems, fmt.Sprintf("digest %.12s, but %.12s on the %q reference run of the same flows",
			first.Digest, w.ref.Digest, w.def.reference))
	}
	// Observers and tracing must not change what the flows did. (The
	// farm's digest covers every lake column, which a traced rep
	// reproduces too.)
	if w.traced != nil && w.traced.Digest != first.Digest {
		problems = append(problems, fmt.Sprintf("traced rep changed the flows: digest %.12s, untraced %.12s",
			w.traced.Digest, first.Digest))
	}
	ws.Problems = problems
	ws.Correct = len(problems) == 0
	if w.traced != nil {
		ws.Layer = w.layers(units, ws)
	}
	return ws
}

// layers assembles the per-layer table of a traced workload: the unit
// costs (identical under every workload), the traced rep's own numbers,
// and the ratios that need more than one process.
func (w *workloadRun) layers(units map[string]float64, ws *workloadSummary) map[string]float64 {
	m := map[string]float64{}
	for _, def := range layerMetrics {
		m[def.name] = 0 // every name is reported, 0 where a workload has no such layer
	}
	for k, v := range units {
		m[k] = v
	}
	for k, v := range w.traced.Layer {
		m[k] = v
	}
	wall := ws.Metrics[wallMetric.name]
	m[wallMetric.name] = wall
	m["harness.cpu_s"] = median(column(w.reps, func(r *repResult) float64 { return r.CPUS }))
	m["shard.cpu_per_wall"] = median(column(w.reps, func(r *repResult) float64 { return r.CPUS / r.WallS }))
	m["bench.trace_overhead_ratio"] = w.traced.WallS / wall
	// How much of the loop the unit costs explain: every hop at the bare
	// port cost (which includes its two events), every other event at
	// the bare dispatch cost. Informational.
	if loop := m["sim.loop_s"]; loop > 0 && m["netem.pkt_hops"] > 0 {
		other := math.Max(0, float64(w.traced.Events)-2*m["netem.pkt_hops"])
		m["bench.model_coverage"] = (m["netem.pkt_hops"]*m["netem.port_hop_ns"] + other*m["sim.dispatch_ns"]) / 1e9 / loop
	}
	if none := w.variants["none"]; none != nil {
		m["obs.telemetry_ratio"] = w.variants["telemetry"].WallS / none.WallS
		m["forensics.ratio"] = w.variants["forensics"].WallS / none.WallS
		m["prof.ratio"] = w.variants["prof"].WallS / none.WallS
		// A difference of two timings: a busy host can push it below zero.
		m["prof.ns_per_event"] = math.Max(0, w.variants["prof"].WallS-none.WallS) * 1e9 / float64(none.Events)
	}
	if one, two := w.variants["half-shards1"], w.variants["half-shards2"]; one != nil && two != nil {
		m["shard.speedup"] = one.WallS / two.WallS
	}
	return m
}

func (ws *workloadSummary) print(out io.Writer, name string) {
	fmt.Fprintf(out, "workload %s: %d reps, %d operations attempted, %d failed, digest %s\n",
		name, ws.Reps, ws.Attempted, ws.Failed, ws.Digest)
	for _, def := range endToEnd {
		fmt.Fprintf(out, "  %-28s %14.6g %s\n", def.name, ws.Metrics[def.name], def.unit)
	}
	fmt.Fprintf(out, "  %-28s %14.6g %s  (min; median %.4g, max %.4g)\n", wallMetric.name,
		ws.WallS[0], wallMetric.unit, ws.WallS[1], ws.WallS[2])
	if ws.Layer != nil {
		for _, def := range layerMetrics {
			if def == wallMetric {
				continue // printed above
			}
			fmt.Fprintf(out, "  %-28s %14.6g %s\n", def.name, ws.Layer[def.name], def.unit)
		}
	}
	for _, p := range ws.Problems {
		fmt.Fprintf(out, "FAIL %s: %s\n", name, p)
	}
}

// result is the object BENCHMARK.json's contract asks for on the last
// line: the end-to-end metrics untraced, the per-layer metrics traced.
func (ws *workloadSummary) result(traced bool) map[string]any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, vals := endToEnd, ws.Metrics
	if traced {
		defs, vals = layerMetrics, ws.Layer
	}
	ms := map[string]value{}
	for _, def := range defs {
		ms[def.name] = value{vals[def.name], def.unit}
	}
	return map[string]any{"correct": ws.Correct, "attempted": ws.Attempted, "failed": ws.Failed, "metrics": ms}
}

// writeLedger writes the numbers in the shape cmd/benchjson's parse
// mode produces, which `flexfarm bench` ingests into the lake's bench
// table: the perf trajectory becomes a lake query.
func writeLedger(path string, sum *summary) error {
	benchmarks := map[string]map[string]float64{}
	for name, ws := range sum.Workloads {
		row := map[string]float64{"cpus": float64(sum.CPUs), "reps": float64(ws.Reps)}
		for k, v := range ws.Metrics {
			row[k] = v
		}
		for k, v := range ws.Layer {
			row[k] = v
		}
		benchmarks[name] = row
	}
	data, err := json.MarshalIndent(map[string]any{
		"generated_at": time.Now().UTC().Format(time.RFC3339),
		"goos":         sum.GoOS,
		"goarch":       sum.GoArch,
		"revision":     sum.Revision,
		"seed":         sum.Seed,
		"benchmarks":   benchmarks,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
