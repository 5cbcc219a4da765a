// Command flexsim runs one large-scale FlexPass deployment simulation and
// prints a metrics summary.
//
// Example:
//
//	flexsim -scheme flexpass -deployment 0.5 -load 0.5 -workload websearch
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"flexpass/internal/chaos"
	"flexpass/internal/farm"
	"flexpass/internal/faults"
	"flexpass/internal/forensics"
	"flexpass/internal/harness"
	"flexpass/internal/live"
	"flexpass/internal/metrics"
	"flexpass/internal/obs"
	"flexpass/internal/prof"
	"flexpass/internal/sim"
	"flexpass/internal/transport"
	"flexpass/internal/workload"
)

func main() {
	var (
		scheme = flag.String("scheme", transport.SchemeFlexPass,
			"deployment scheme, one of: "+strings.Join(transport.SchemeNames(), ", "))
		schemeOpts = flag.String("scheme-opt", "", "per-scheme options as comma-separated key=value pairs (e.g. reactive=reno,disable_proretx=1)")
		deployment = flag.Float64("deployment", 0.5, "fraction of FlexPass/ExpressPass-enabled racks")
		load       = flag.Float64("load", 0.5, "target core (ToR uplink) utilization")
		wl         = flag.String("workload", "websearch", "flow size distribution: websearch, cachefollower, datamining, hadoop")
		seed       = flag.Int64("seed", 1, "random seed")
		durMS      = flag.Float64("duration", 15, "flow arrival window, milliseconds")
		incast     = flag.Float64("incast", 0, "foreground incast volume fraction (0 disables)")
		wq         = flag.Float64("wq", 0.5, "FlexPass queue weight")
		full       = flag.Bool("full", false, "use the paper's 192-host Clos instead of the scaled fabric")
		topoName   = flag.String("topo", "", "fabric by name: tiny (4 hosts), small (48), paper (192), big (768); overrides -full")
		queues     = flag.Bool("queues", false, "sample Q1 occupancy at ToR uplinks")
		shards     = flag.Int("shards", 1, "partition the fabric into this many per-pod-block shards, one engine goroutine each (1 = single engine; clamped to the pod count)")
		traceIn    = flag.String("trace", "", "replay a CSV flow trace instead of generating traffic")
		wlPlan     = flag.String("workload-plan", "", "JSON workload-plan file (see internal/workload): composable sources (poisson/onoff/lognormal/incast/rpc/trace) with rate modulators; replaces -workload/-incast")
		traceOut   = flag.String("dump-trace", "", "write the generated workload as a CSV trace and exit")
		telOut     = flag.String("telemetry-out", "", "write the run artifact (manifest, series, counters, trace) as JSONL — or CSV if the path ends in .csv")
		traceRing  = flag.Int("trace-ring", 0, "capacity of the transport event trace ring (0 disables; dumped to stderr unless -telemetry-out captures it)")
		forOut     = flag.String("forensics-out", "", "enable the forensic plane (hop recording, invariant auditors, worst-flow timelines) and write the run artifact as JSONL here")
		traceFlow  = flag.String("trace-flow", "", "comma-separated flow IDs whose timelines are always exported (implies forensics)")
		pprofOut   = flag.String("pprof", "", "write a CPU profile of the simulation to this file")
		memOut     = flag.String("memprofile", "", "write a heap profile (post-run, after GC) to this file")
		profOut    = flag.String("profile-out", "", "enable the engine self-profiler and write folded stacks (flamegraph input) here; '-' prints a table to stderr")
		serveAddr  = flag.String("serve", "", "serve live /status, /metrics, and pprof on this address while the run executes (e.g. :8080)")
		linger     = flag.Duration("serve-linger", 0, "keep the -serve endpoint up this long after the run finishes")
		faultPlan  = flag.String("fault-plan", "", "JSON fault-plan file (see internal/faults); runs the scheme clean and faulted and prints a degradation report")
		faultSpec  = flag.String("fault", "", "inline fault shorthand, e.g. 'down@sw0->h1@2ms-3ms,burst@tor*@1ms-5ms'; same behavior as -fault-plan")
		faultOne   = flag.Bool("fault-single", false, "with a fault plan: run once faulted instead of the clean-vs-faulted pair (composes with -telemetry-out/-forensics-out)")
		degradeOut = flag.String("degradation-out", "", "stem for the degradation report artifact; writes <stem>.jsonl and <stem>.csv")
		deadline   = flag.Duration("deadline", 0, "wall-clock deadline; a run still going after this is killed with a clean error (0 = off)")
		stallTO    = flag.Duration("stall-timeout", 0, "kill the run when the engine horizon stops advancing for this long (livelock/wedge guard; 0 = off)")
	)
	flag.Parse()

	var topos []string
	if *topoName != "" {
		topos = []string{*topoName}
	}
	if err := farm.CheckNames([]string{*scheme}, topos, []string{*wl}); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	sc := harness.BaseScenario(*full)
	if *topoName != "" {
		sc.Clos = farm.Topologies[*topoName]
	}
	sc.Scheme = harness.Scheme(*scheme)
	sc.Deployment = *deployment
	sc.Load = *load
	sc.Seed = *seed
	sc.WQ = *wq
	sc.Duration = sim.Time(*durMS * float64(sim.Millisecond))
	sc.IncastFraction = *incast
	sc.SampleQueues = *queues
	if *shards < 1 {
		fmt.Fprintf(os.Stderr, "-shards must be >= 1 (got %d)\n", *shards)
		os.Exit(1)
	}
	sc.Shards = *shards
	if *schemeOpts != "" {
		sc.SchemeOptions = make(map[string]string)
		for _, kv := range strings.Split(*schemeOpts, ",") {
			k, v, ok := strings.Cut(kv, "=")
			if !ok || k == "" {
				fmt.Fprintf(os.Stderr, "bad -scheme-opt entry %q (want key=value)\n", kv)
				os.Exit(1)
			}
			sc.SchemeOptions[k] = v
		}
	}
	sc.Workload = workload.ByName(*wl)
	if *wlPlan != "" {
		if *traceIn != "" {
			fmt.Fprintln(os.Stderr, "-workload-plan and -trace are mutually exclusive (a plan can embed a trace source instead)")
			os.Exit(1)
		}
		p, err := workload.ParsePlanFile(*wlPlan)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		sc.WorkloadPlan = p
	}

	if *traceIn != "" {
		f, err := os.Open(*traceIn)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		flows, err := workload.ReadTrace(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		sc.TraceFlows = flows
	}
	if *traceOut != "" {
		flows := harness.Flows(sc)
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := workload.WriteTrace(f, flows); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("wrote %d flows to %s\n", len(flows), *traceOut)
		return
	}

	if *telOut != "" || *traceRing > 0 {
		sc.Telemetry = &obs.Options{TraceCap: *traceRing}
	}
	if *forOut != "" || *traceFlow != "" {
		if *shards > 1 {
			fmt.Fprintln(os.Stderr, "forensics (-forensics-out / -trace-flow) needs one engine; drop -shards or set it to 1")
			os.Exit(1)
		}
		fo := &forensics.Options{}
		for _, s := range strings.Split(*traceFlow, ",") {
			if s = strings.TrimSpace(s); s == "" {
				continue
			}
			id, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bad -trace-flow id %q: %v\n", s, err)
				os.Exit(1)
			}
			fo.Flows = append(fo.Flows, id)
		}
		sc.Forensics = fo
	}
	var plan *faults.Plan
	var repro *chaos.Repro
	if *faultPlan != "" && *faultSpec != "" {
		fmt.Fprintln(os.Stderr, "-fault-plan and -fault are mutually exclusive")
		os.Exit(1)
	}
	if *faultPlan != "" {
		data, err := os.ReadFile(*faultPlan)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if chaos.IsRepro(data) {
			// A chaos repro document carries the whole failing scenario —
			// coordinates, oracle thresholds, fault plan, and the pinned
			// flow list — so the replay is bit-identical to the failing
			// trial. It replaces every scenario flag.
			repro, err = chaos.ParseRepro(data)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			sc = repro.Scenario()
			fmt.Fprintf(os.Stderr, "chaos repro %s: trial %d of spec %q, recorded outcome %q, %d pinned flows\n",
				*faultPlan, repro.Trial, repro.Spec, repro.Outcome, len(repro.Flows))
		} else {
			plan, err = faults.ParsePlanFile(*faultPlan)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	} else if *faultSpec != "" {
		var err error
		if plan, err = faults.ParseSpec(*faultSpec); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	// The watchdog limits guard every run mode, including each leg of
	// the degradation pair.
	sc.Deadline = *deadline
	sc.StallTimeout = *stallTO
	if plan != nil && !*faultOne {
		// Degradation mode: run the selected scheme clean and faulted on
		// the same seed and report the deltas.
		d := harness.RunDegradation(sc, plan, []harness.Scheme{sc.Scheme})
		fmt.Print(d.String())
		if *degradeOut != "" {
			if err := d.WriteFiles(*degradeOut); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "degradation report written to %s.jsonl and %s.csv\n", *degradeOut, *degradeOut)
		}
		return
	}
	if repro == nil {
		sc.FaultPlan = plan
	}
	sc.Profile = *profOut != ""

	var srv *live.Server
	if *serveAddr != "" {
		board := &live.RunBoard{}
		sc.Live = board
		s, bound, err := board.Serve(*serveAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		srv = s
		fmt.Fprintf(os.Stderr, "introspection: http://%s/status  /metrics  /debug/pprof/\n", bound)
	}

	var stopCPU func() error
	if *pprofOut != "" {
		stop, err := obs.StartCPUProfile(*pprofOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		stopCPU = stop
	}

	// A watchdog kill or a scenario contract violation is a clean CLI
	// error, not a panic trace.
	res, err := harness.Try(harness.Run, sc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flexsim:", err)
		os.Exit(1)
	}

	if stopCPU != nil {
		if err := stopCPU(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "cpu profile written to %s\n", *pprofOut)
	}
	if *memOut != "" {
		if err := obs.WriteHeapProfile(*memOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "heap profile written to %s\n", *memOut)
	}
	if *profOut != "" && res.Profile != nil {
		if *profOut == "-" {
			_ = prof.WriteTableProfile(os.Stderr, res.Profile)
		} else {
			f, err := os.Create(*profOut)
			if err == nil {
				err = prof.WriteFoldedProfile(f, res.Profile)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "engine profile (folded stacks) written to %s\n", *profOut)
			_ = prof.WriteTableProfile(os.Stderr, res.Profile)
		}
	}
	if srv != nil {
		if *linger > 0 {
			fmt.Fprintf(os.Stderr, "run done; keeping introspection endpoint up for %s\n", *linger)
			time.Sleep(*linger)
		}
		srv.Close()
	}
	if res.Telemetry != nil && *telOut != "" {
		var err error
		if strings.HasSuffix(*telOut, ".csv") {
			var f *os.File
			if f, err = os.Create(*telOut); err == nil {
				err = res.Telemetry.WriteCSV(f)
				f.Close()
			}
		} else {
			err = res.Telemetry.WriteJSONLFile(*telOut)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "telemetry written to %s (%d series, %d counters, %d trace events)\n",
			*telOut, len(res.Telemetry.Series), len(res.Telemetry.Counters), len(res.Telemetry.Trace))
	} else if *traceRing > 0 && res.Trace != nil && res.Trace.Len() > 0 {
		fmt.Fprintf(os.Stderr, "-- trace ring (%d events, %d overwritten) --\n",
			res.Trace.Len(), res.Trace.Overwritten())
		_ = res.Trace.Dump(os.Stderr)
	}
	if rep := res.Forensics; rep != nil {
		if *forOut != "" {
			if err := res.Telemetry.WriteJSONLFile(*forOut); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "forensics written to %s (%d violations, %d timelines)\n",
				*forOut, len(rep.Violations), len(rep.Timelines))
		}
		for _, v := range rep.Violations {
			fmt.Fprintln(os.Stderr, "VIOLATION", v)
		}
		if rep.ViolationsDropped > 0 {
			fmt.Fprintf(os.Stderr, "(%d further violations dropped over the retention cap)\n", rep.ViolationsDropped)
		}
		fmt.Fprintln(os.Stderr, "-- worst-slowdown flow timelines --")
		for _, tl := range rep.Timelines {
			_ = tl.Dump(os.Stderr)
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
		if repro.Outcome != "" && v.Outcome != repro.Outcome {
			fmt.Fprintf(os.Stderr, "replay outcome %q differs from the recorded %q\n", v.Outcome, repro.Outcome)
			os.Exit(1)
		}
		if v.Failed() {
			os.Exit(1) // reproduced
		}
	}
}
