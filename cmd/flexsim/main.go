// Command flexsim runs one FlexPass simulation and prints a metrics
// summary. Its scenario flags are a one-point sweep spec (internal/farm):
// the run is the farm point with the same coordinates, checked by the
// same rules, with flexsim's observers — telemetry, forensics, the engine
// self-profiler, the live board and the watchdog — on top.
//
// Example:
//
//	flexsim -scheme flexpass -deployment 0.5 -load 0.5 -workload websearch
//
// -workload takes a sweep's workload entry: a distribution name, a
// workload-plan .json or a flow-trace .csv. -fault takes a fault entry:
// the CLI shorthand or a fault-plan .json. A chaos repro given to -fault
// replaces the whole scenario and replays the failing trial, exiting 1
// while the failure reproduces.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"flexpass/internal/chaos"
	"flexpass/internal/farm"
	"flexpass/internal/forensics"
	"flexpass/internal/harness"
	"flexpass/internal/live"
	"flexpass/internal/metrics"
	"flexpass/internal/obs"
	"flexpass/internal/prof"
	"flexpass/internal/sim"
	"flexpass/internal/transport"
	"flexpass/internal/transport/schemes"
	"flexpass/internal/workload"
)

// options is a parsed command line: the scenario flags as a one-point
// sweep spec, and the observers around it.
type options struct {
	spec  farm.Spec
	fault string // the -fault entry; a chaos repro replaces spec

	forensics  bool
	traceFlows []uint64

	dumpTrace, telOut, forOut, pprofOut, memOut, profOut, serveAddr string
	traceRing                                                       int
	linger, deadline, stall                                         time.Duration
}

func parseFlags(args []string) (*options, error) {
	fs := flag.NewFlagSet("flexsim", flag.ExitOnError)
	o := &options{}
	var (
		scheme = fs.String("scheme", transport.SchemeFlexPass,
			"deployment scheme, one of: "+strings.Join(schemes.Names(), ", "))
		schemeOpts = fs.String("scheme-opt", "", "per-scheme options as comma-separated key=value pairs (e.g. reactive=reno,disable_proretx=1)")
		deployment = fs.Float64("deployment", 0.5, "fraction of FlexPass/ExpressPass-enabled racks")
		load       = fs.Float64("load", 0.5, "target core (ToR uplink) utilization")
		wl         = fs.String("workload", "websearch", "workload entry: a flow size distribution (websearch, cachefollower, datamining, hadoop), a workload-plan .json (composable sources with rate modulators, see internal/workload) or a flow-trace .csv")
		seed       = fs.Int64("seed", 1, "random seed")
		durMS      = fs.Float64("duration", 15, "flow arrival window, milliseconds")
		incast     = fs.Float64("incast", 0, "foreground incast volume fraction (0 disables)")
		wq         = fs.Float64("wq", 0.5, "FlexPass queue weight")
		topoName   = fs.String("topo", "small", "fabric by name: Clos tiny (4 hosts), small (48), paper (192), big (768); testbed (10 GbE) single3, single9, dumbbell2, dumbbell32")
		queues     = fs.Bool("queues", false, "sample Q1 occupancy at ToR uplinks")
		shards     = fs.Int("shards", 0, "partition the fabric into this many per-pod-block shards, one engine goroutine each (0 or 1 = single engine; clamped to the pod count)")
		traceFlow  = fs.String("trace-flow", "", "comma-separated flow IDs whose timelines are always exported (implies forensics)")
	)
	fs.StringVar(&o.dumpTrace, "dump-trace", "", "write the scenario's flow list as a CSV trace and exit")
	fs.StringVar(&o.telOut, "telemetry-out", "", "write the run artifact (manifest, series, counters, trace) as JSONL — or CSV if the path ends in .csv")
	fs.IntVar(&o.traceRing, "trace-ring", 0, "capacity of the transport event trace ring (0 disables; dumped to stderr unless -telemetry-out captures it)")
	fs.StringVar(&o.forOut, "forensics-out", "", "enable the forensic plane (hop recording, invariant auditors, worst-flow timelines) and write the run artifact as JSONL here")
	fs.StringVar(&o.pprofOut, "pprof", "", "write a CPU profile of the simulation to this file")
	fs.StringVar(&o.memOut, "memprofile", "", "write a heap profile (post-run, after GC) to this file")
	fs.StringVar(&o.profOut, "profile-out", "", "enable the engine self-profiler and write folded stacks (flamegraph input) here; '-' prints a table to stderr")
	fs.StringVar(&o.serveAddr, "serve", "", "serve live /status, /metrics, and pprof on this address while the run executes (e.g. :8080)")
	fs.DurationVar(&o.linger, "serve-linger", 0, "keep the -serve endpoint up this long after the run finishes")
	fs.StringVar(&o.fault, "fault", "", "fault entry: inline shorthand, e.g. 'down@sw0->h1@2ms-3ms,burst@tor*@1ms-5ms', or a fault-plan .json (see internal/faults); a chaos repro .json replays its whole trial; a clean-vs-faulted comparison is a sweep with a fault axis (make faults-demo)")
	fs.DurationVar(&o.deadline, "deadline", 0, "wall-clock deadline; a run still going after this is killed with a clean error (0 = off)")
	fs.DurationVar(&o.stall, "stall-timeout", 0, "kill the run when the engine horizon stops advancing for this long (livelock/wedge guard; 0 = off)")
	fs.Parse(args)
	// A sweep spec reads a zero duration as "omitted" and runs its 2 ms
	// default, so flexsim refuses it here.
	if *durMS <= 0 {
		return nil, fmt.Errorf("-duration %g: want a positive number of milliseconds", *durMS)
	}
	// Only a positive capacity makes a ring, so a negative one would run
	// without the trace it asked for.
	if o.traceRing < 0 {
		return nil, fmt.Errorf("-trace-ring %d: want a capacity of 0 (off) or more", o.traceRing)
	}

	// The §6.2 base's drain, on every fabric.
	drainMS := float64(harness.BaseScenario(false).Drain) / float64(sim.Millisecond)
	o.spec = farm.Spec{
		Name:    "flexsim",
		Schemes: []string{*scheme}, Topologies: []string{*topoName}, Workloads: []string{*wl},
		Loads: []float64{*load}, Deployments: []float64{*deployment}, WQs: []float64{*wq},
		Seeds: []int64{*seed}, Shards: []int{*shards},
		DurationMS: *durMS, DrainMS: &drainMS,
		IncastFraction: *incast, Queues: *queues,
	}
	if *schemeOpts != "" {
		opts := map[string]string{}
		for _, kv := range strings.Split(*schemeOpts, ",") {
			k, v, ok := strings.Cut(kv, "=")
			if !ok || k == "" {
				return nil, fmt.Errorf("bad -scheme-opt entry %q (want key=value)", kv)
			}
			opts[k] = v
		}
		o.spec.Options = []map[string]string{opts}
	}
	if o.fault != "" {
		o.spec.Faults = []string{o.fault}
	}
	o.forensics = o.forOut != "" || *traceFlow != ""
	for _, s := range strings.Split(*traceFlow, ",") {
		if s = strings.TrimSpace(s); s == "" {
			continue
		}
		id, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -trace-flow id %q: %v", s, err)
		}
		o.traceFlows = append(o.traceFlows, id)
	}
	return o, nil
}

// point is the flags' one sweep point, validated and resolved as a
// sweep spec's points are.
func (o *options) point() (farm.Point, error) {
	if err := o.spec.Validate(); err != nil {
		return farm.Point{}, err
	}
	pts, err := o.spec.Points()
	if err != nil {
		return farm.Point{}, err
	}
	return pts[0], nil
}

// repro parses the -fault entry if it is a chaos repro, and is nil for
// any other entry (the spec's validation reports an unreadable plan).
func (o *options) repro() (*chaos.Repro, error) {
	if !strings.HasSuffix(o.fault, ".json") {
		return nil, nil
	}
	data, err := os.ReadFile(o.fault)
	if err != nil || !chaos.IsRepro(data) {
		return nil, nil
	}
	return chaos.ParseRepro(data)
}

// scenario assembles the run: a chaos repro named by -fault, or the
// flags' point with telemetry off; then the observers the flags ask for.
func (o *options) scenario() (harness.Scenario, *chaos.Repro, error) {
	var sc harness.Scenario
	repro, err := o.repro()
	if err != nil {
		return sc, nil, err
	}
	if repro != nil {
		sc = repro.Scenario()
	} else {
		pt, err := o.point()
		if err != nil {
			return sc, nil, err
		}
		sc = pt.Scenario()
		sc.Telemetry = nil
	}
	if o.telOut != "" || o.traceRing > 0 {
		sc.Telemetry = &obs.Options{TraceCap: o.traceRing}
	}
	if o.forensics {
		if sc.Forensics == nil {
			sc.Forensics = &forensics.Options{}
		}
		sc.Forensics.Flows = o.traceFlows
	}
	sc.Deadline = o.deadline
	sc.StallTimeout = o.stall
	sc.Profile = o.profOut != ""
	return sc, repro, nil
}

// check ends the run with err, if any: a watchdog kill or a scenario
// contract violation is a clean CLI error, not a panic trace.
func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "flexsim:", err)
		os.Exit(1)
	}
}

// create writes the file at path through write.
func create(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	check(err)
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	check(err)
}

func main() {
	o, err := parseFlags(os.Args[1:])
	check(err)
	sc, repro, err := o.scenario()
	check(err)
	if repro != nil {
		fmt.Fprintf(os.Stderr, "chaos repro %s: trial %d of spec %q, recorded outcome %q, %d pinned flows\n",
			o.fault, repro.Trial, repro.Spec, repro.Outcome, len(repro.Flows))
	}
	if o.dumpTrace != "" {
		flows := harness.Flows(sc)
		create(o.dumpTrace, func(w io.Writer) error { return workload.WriteTrace(w, flows) })
		fmt.Printf("wrote %d flows to %s\n", len(flows), o.dumpTrace)
		return
	}

	var srv *live.Server
	if o.serveAddr != "" {
		board := &live.RunBoard{}
		sc.Live = board
		var bound string
		srv, bound, err = board.Serve(o.serveAddr)
		check(err)
		fmt.Fprintf(os.Stderr, "introspection: http://%s/status  /metrics  /debug/pprof/\n", bound)
	}
	var stopCPU func() error
	if o.pprofOut != "" {
		stopCPU, err = obs.StartCPUProfile(o.pprofOut)
		check(err)
	}

	res, err := harness.Try(harness.Run, sc)
	check(err)

	if stopCPU != nil {
		check(stopCPU())
		fmt.Fprintf(os.Stderr, "cpu profile written to %s\n", o.pprofOut)
	}
	if o.memOut != "" {
		check(obs.WriteHeapProfile(o.memOut))
		fmt.Fprintf(os.Stderr, "heap profile written to %s\n", o.memOut)
	}
	if o.profOut != "" && res.Profile != nil {
		if o.profOut != "-" {
			create(o.profOut, func(w io.Writer) error { return prof.WriteFoldedProfile(w, res.Profile) })
			fmt.Fprintf(os.Stderr, "engine profile (folded stacks) written to %s\n", o.profOut)
		}
		_ = prof.WriteTableProfile(os.Stderr, res.Profile)
	}
	if srv != nil {
		if o.linger > 0 {
			fmt.Fprintf(os.Stderr, "run done; keeping introspection endpoint up for %s\n", o.linger)
			time.Sleep(o.linger)
		}
		srv.Close()
	}
	if res.Telemetry != nil && o.telOut != "" {
		if strings.HasSuffix(o.telOut, ".csv") {
			create(o.telOut, res.Telemetry.WriteCSV)
		} else {
			check(res.Telemetry.WriteJSONLFile(o.telOut))
		}
		fmt.Fprintf(os.Stderr, "telemetry written to %s (%d series, %d counters, %d trace events)\n",
			o.telOut, len(res.Telemetry.Series), len(res.Telemetry.Counters), len(res.Telemetry.Trace))
	} else if o.traceRing > 0 && res.Trace != nil && res.Trace.Len() > 0 {
		fmt.Fprintf(os.Stderr, "-- trace ring (%d events, %d overwritten) --\n",
			res.Trace.Len(), res.Trace.Overwritten())
		_ = res.Trace.Dump(os.Stderr)
	}
	if rep := res.Forensics; rep != nil {
		if o.forOut != "" {
			check(res.Telemetry.WriteJSONLFile(o.forOut))
			fmt.Fprintf(os.Stderr, "forensics written to %s (%d violations, %d timelines)\n",
				o.forOut, len(rep.Violations), len(rep.Timelines))
		}
		for _, v := range rep.Violations {
			fmt.Fprintln(os.Stderr, "VIOLATION", v)
		}
		if rep.ViolationsDropped > 0 {
			fmt.Fprintf(os.Stderr, "(%d further violations dropped over the retention cap)\n", rep.ViolationsDropped)
		}
		fmt.Fprintln(os.Stderr, "-- worst-slowdown flow timelines --")
		for i := range rep.Timelines {
			_ = rep.Timelines[i].Render(os.Stderr, res.Telemetry.Faults, obs.TimelineRows, "")
		}
	}

	s := metrics.Summarize(res.Flows.Records)
	fmt.Printf("scheme=%s deployment=%.0f%% load=%.0f%% workload=%s seed=%d\n",
		sc.Scheme, sc.Deployment*100, sc.Load*100, sc.WorkloadName(), sc.Seed)
	fmt.Printf("flows: %d total, %d incomplete, %d small (<100kB)\n",
		s.Flows, s.Incomplete(), s.SmallCompleted)
	fmt.Printf("overall avg FCT:          %v\n", s.MeanFCT)
	fmt.Printf("99%%-ile FCT (<100kB):     %v\n", s.P99Small)
	fmt.Printf("  legacy traffic:         %v\n", s.P99SmallLegacy)
	fmt.Printf("  upgraded traffic:       %v\n", s.P99SmallNew)
	fmt.Printf("FCT stddev (<100kB):      legacy %v / upgraded %v\n", s.StdSmallLegacy, s.StdSmallNew)
	fmt.Printf("timeouts: %d, selective drops: %d, credit drops: %d, data drops: %d\n",
		s.Timeouts, res.DropsRed, res.DropsCredit, res.DropsOther)
	if res.Faults != nil {
		fs := res.FaultDrops
		fmt.Printf("faults: %d actions applied, %d packets destroyed (link-down %d, burst %d, credit %d)\n",
			res.Faults.Len(), fs.Injected, fs.LinkDown, fs.BurstLoss, fs.CreditLoss)
	}
	if sc.SampleQueues {
		fmt.Printf("Q1 occupancy: avg %dB (red %dB), p90 %dB (red %dB)\n",
			res.QueueAvg, res.QueueRedAvg, res.QueueP90, res.QueueRedP90)
	}
	if sc.Scheme == harness.SchemeOWF {
		fmt.Printf("oracle queue weight: %.3f\n", res.OracleWQ)
	}
	fmt.Printf("events processed: %d\n", res.Events)

	if repro != nil {
		v := chaos.Evaluate(res, repro.Oracles)
		fmt.Printf("chaos verdict: %s", v.Outcome)
		if v.Detail != "" {
			fmt.Printf(" (%s)", v.Detail)
		}
		fmt.Println()
		fmt.Printf("violations=%d dropped=%d incomplete=%d strays=%d\n",
			v.Violations, v.ViolationsDropped, v.Incomplete, v.Strays)
		if repro.Outcome != "" && v.Outcome != repro.Outcome {
			fmt.Fprintf(os.Stderr, "replay outcome %q differs from the recorded %q\n", v.Outcome, repro.Outcome)
			os.Exit(1)
		}
		if v.Failed() {
			os.Exit(1) // reproduced
		}
	}
}
