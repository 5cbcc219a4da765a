// Command flexfarm orchestrates experiment sweeps and queries the
// result lake they produce.
//
//	flexfarm run    -spec sweep.json -out results_sweep [-workers N] [-force] [-v]
//	                [-serve :8080] [-serve-linger 60s] [-summary-every 2s]
//	flexfarm ingest -lake results_sweep [artifact-dir...]
//	flexfarm query  -lake results_sweep [-where k=v,...] [-group-by a,b] [-agg m:fn,...] [-csv]
//	                [-series NAME=entity:metric,...]
//	flexfarm bench  [-lake results_sweep] [-bench NAME] [-metric NAME] [-csv] [FILE.json...]
//	flexfarm diff   BASELINE CANDIDATE [-tolerance PCT] [-abs X] [-metrics m,...]
//
// run expands the sweep spec's cross-product, executes it on all cores
// with content-addressed, resumable artifacts, and indexes the lake.
// The spec's workload axis accepts distribution names ("websearch"),
// workload-plan files (*.json, see internal/workload) and flow traces
// (*.csv); plan and trace entries are identified by content hash,
// queryable as workload_plan_sig.
// While it runs, progress is a rate-limited summary line (done/total,
// running, failed, ETA); -v restores one line per point. With -serve the
// process exposes live /status (JSON progress), /metrics (Prometheus),
// and /debug/pprof/ endpoints for the duration of the sweep.
// query answers filter/group-by/aggregate questions — a paper figure
// like p99 FCT by scheme and load is:
//
//	flexfarm query -lake results_sweep -group-by scheme,load -agg fct_p99_us:mean
//
// and a throughput figure (Figs 1, 7, 9) is one run's counter series in
// 1 ms windows, as CSV in Gb/s:
//
//	flexfarm query -lake results_sweep -where sweep=fig9,scheme=flexpass \
//	  -series FlexPass=transport/flexpass:rx_bytes,DCTCP=transport/dctcp:rx_bytes
//
// bench lists the bench table: the rows of bench-pair reports and bench
// ledgers, in time order. The perf trajectory of one metric is
//
//	flexfarm bench -bench observed -metric alloc_mb BENCH_PR*.json
//
// diff compares two lakes (directories or index files) scenario by
// scenario and exits 1 when any deterministic metric drifts beyond
// tolerance — the cross-run regression gate CI runs.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"flexpass/internal/farm"
	"flexpass/internal/lake"
	"flexpass/internal/live"
	"flexpass/internal/obs"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "run":
		runCmd(os.Args[2:])
	case "ingest":
		ingestCmd(os.Args[2:])
	case "query":
		queryCmd(os.Args[2:])
	case "bench":
		benchCmd(os.Args[2:])
	case "diff":
		diffCmd(os.Args[2:])
	case "chaos":
		chaosCmd(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: flexfarm run|ingest|query|bench|diff|chaos [flags]  (see `go doc ./cmd/flexfarm`)")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "flexfarm:", err)
	os.Exit(1)
}

func runCmd(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	spec := fs.String("spec", "", "sweep spec JSON file (required)")
	out := fs.String("out", "", "lake directory to land artifacts and the index in (required)")
	workers := fs.Int("workers", 0, "worker pool size (0 = all cores)")
	force := fs.Bool("force", false, "re-run scenarios even when a valid artifact exists")
	verbose := fs.Bool("v", false, "log one line per scenario outcome")
	shards := fs.Int("shards", -1, "override the spec's shards axis with one parallel-engine shard count (0 = single engine, -1 = use the spec)")
	serve := fs.String("serve", "", "serve live /status, /metrics, and pprof on this address (e.g. :8080)")
	linger := fs.Duration("serve-linger", 0, "keep the -serve endpoint up this long after the sweep finishes")
	summaryEvery := fs.Duration("summary-every", 2*time.Second, "periodic progress summary interval (0 disables)")
	pointTimeout := fs.Duration("point-timeout", 0, "wall-clock deadline per scenario; exceeded points are killed and recorded as failures (0 = off)")
	fs.Parse(args)
	if *spec == "" || *out == "" {
		fatal(fmt.Errorf("run needs -spec and -out"))
	}
	s, err := farm.ParseSpecFile(*spec)
	if err != nil {
		fatal(err)
	}
	if *shards >= 0 {
		s.Shards = []int{*shards}
	}
	points, err := s.Points()
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "sweep %q: %d scenarios -> %s\n", s.Name, len(points), *out)

	// Progress plumbing: every event feeds the tracker; the log gets
	// either the legacy per-point lines (-v) or immediate failures plus
	// the rate-limited summary ticker below.
	tracker := farm.NewTracker(s.Name, len(points))
	logLine := func(ev farm.ProgressEvent) {
		if ev.Kind == farm.EventFailed {
			fmt.Fprintf(os.Stderr, "FAIL %s %s: %s\n", ev.Hash, ev.Label, ev.Err)
		} else if *verbose && ev.Kind != farm.EventStarted {
			fmt.Fprintf(os.Stderr, "%-4s %s %s\n", ev.Kind, ev.Hash, ev.Label)
		}
	}
	// SIGINT/SIGTERM stop dispatching new points; in-flight points
	// finish, failures.jsonl and the index are still written, and the
	// sweep resumes from its artifacts on the next invocation.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	opt := farm.Options{
		Workers: *workers, Force: *force,
		Progress:     farm.Fanout(tracker.Observe, logLine),
		PointTimeout: *pointTimeout,
		Ctx:          ctx,
	}

	var srv *live.Server
	if *serve != "" {
		reg := obs.NewRegistry()
		tracker.Register(reg)
		srv = live.NewServer(func() any { return tracker.Status() }, reg.Final)
		bound, err := srv.Start(*serve)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "introspection: http://%s/status  /metrics  /debug/pprof/\n", bound)
	}

	stopSummary := make(chan struct{})
	if !*verbose && *summaryEvery > 0 {
		go func() {
			tick := time.NewTicker(*summaryEvery)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					fmt.Fprintln(os.Stderr, tracker.Summary())
				case <-stopSummary:
					return
				}
			}
		}()
	}

	rep, err := farm.Execute(points, *out, opt)
	close(stopSummary)
	if err != nil {
		fatal(err)
	}
	interrupted := ""
	if rep.Canceled {
		interrupted = " — interrupted, resume with the same command"
	}
	fmt.Fprintf(os.Stderr, "sweep %q: %d ran, %d resumed, %d failed (of %d)%s\n",
		s.Name, rep.Ran, rep.Skipped, len(rep.Failures), rep.Total, interrupted)
	for _, f := range rep.Failures {
		fmt.Fprintf(os.Stderr, "  FAIL %s %s: %s\n", f.Hash, f.Label, f.Error)
	}
	if srv != nil && *linger > 0 {
		fmt.Fprintf(os.Stderr, "sweep done; keeping introspection endpoint up for %s\n", *linger)
		time.Sleep(*linger)
	}
	srv.Close()
	if len(rep.Failures) > 0 || rep.Canceled {
		os.Exit(1)
	}
}

func ingestCmd(args []string) {
	fs := flag.NewFlagSet("ingest", flag.ExitOnError)
	lakeDir := fs.String("lake", "", "lake directory to (re)build the index in (required)")
	fs.Parse(args)
	if *lakeDir == "" {
		fatal(fmt.Errorf("ingest needs -lake"))
	}
	dirs := fs.Args()
	if len(dirs) == 0 {
		dirs = []string{*lakeDir + "/" + lake.RunsDir}
	}
	ix := &lake.Index{}
	total := 0
	for _, d := range dirs {
		n, errs := ix.IngestDir(d)
		total += n
		for _, err := range errs {
			fmt.Fprintln(os.Stderr, "flexfarm: warning:", err)
		}
	}
	ix.Sort()
	if err := ix.WriteTo(*lakeDir); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "indexed %d runs into %s/%s\n", total, *lakeDir, lake.IndexFile)
}

func queryCmd(args []string) {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	lakeDir := fs.String("lake", "", "lake directory or index file (required)")
	where := fs.String("where", "", "comma-separated filter conditions (k=v, k!=v, k<v, k<=v, k>v, k>=v; globs for strings)")
	groupBy := fs.String("group-by", "", "comma-separated dimension columns")
	agg := fs.String("agg", "", "comma-separated aggregates col:fn (fn: mean,sum,min,max,count,p50,p90,p99); default count")
	csv := fs.Bool("csv", false, "emit CSV instead of an aligned table")
	cols := fs.Bool("columns", false, "list queryable columns and exit")
	series := fs.String("series", "", "NAME=entity:metric,...: the one run -where selects, as each counter series' Gb/s per 1 ms window (CSV)")
	fs.Parse(args)
	if *cols {
		fmt.Println(strings.Join(lake.ColumnNames(), "\n"))
		return
	}
	if *lakeDir == "" {
		fatal(fmt.Errorf("query needs -lake"))
	}
	ix, err := lake.Load(*lakeDir)
	if err != nil {
		fatal(err)
	}
	q := lake.Query{}
	for _, c := range splitList(*where) {
		cond, err := lake.ParseCond(c)
		if err != nil {
			fatal(err)
		}
		q.Where = append(q.Where, cond)
	}
	if *series != "" {
		sc, err := lake.ParseSeries(*series)
		if err != nil {
			fatal(err)
		}
		run, err := ix.Artifact(*lakeDir, q.Where)
		if err != nil {
			fatal(err)
		}
		t, err := lake.SeriesTable(run, sc)
		if err == nil {
			err = t.WriteCSV(os.Stdout)
		}
		if err != nil {
			fatal(err)
		}
		return
	}
	q.GroupBy = splitList(*groupBy)
	if *agg != "" {
		if q.Aggs, err = lake.ParseAggs(*agg); err != nil {
			fatal(err)
		}
	}
	t, err := ix.Run(q)
	if err != nil {
		fatal(err)
	}
	if *csv {
		err = t.WriteCSV(os.Stdout)
	} else {
		err = t.WriteText(os.Stdout)
	}
	if err != nil {
		fatal(err)
	}
}

func benchCmd(args []string) {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	lakeDir := fs.String("lake", "", "lake directory or index file to add the files to (default: query the files alone)")
	bench := fs.String("bench", "", "filter by workload or benchmark name")
	metric := fs.String("metric", "", "filter by metric (e.g. alloc_mb)")
	csv := fs.Bool("csv", false, "emit CSV instead of an aligned table")
	fs.Parse(args)
	ix := &lake.Index{}
	var err error
	if *lakeDir != "" {
		if ix, err = lake.Load(*lakeDir); err != nil {
			fatal(err)
		}
	}
	// Positional args are bench-pair reports or bench ledgers to ingest
	// before querying; without -lake they are held in memory only.
	ingested := 0
	for _, p := range fs.Args() {
		n, err := ix.IngestBenchFile(p)
		if err != nil {
			fatal(err)
		}
		ingested += n
	}
	ix.Sort()
	if ingested > 0 && *lakeDir != "" {
		target := *lakeDir
		if fi, err := os.Stat(target); err == nil && fi.IsDir() {
			if err := ix.WriteTo(target); err != nil {
				fatal(err)
			}
		} else if err := ix.WriteFile(target); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "ingested %d bench metrics\n", ingested)
	}
	t := ix.BenchTable(*bench, *metric)
	if *csv {
		err = t.WriteCSV(os.Stdout)
	} else {
		err = t.WriteText(os.Stdout)
	}
	if err != nil {
		fatal(err)
	}
}

func diffCmd(args []string) {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	tolPct := fs.Float64("tolerance", 0, "relative drift tolerance in percent")
	tolAbs := fs.Float64("abs", 0, "absolute drift tolerance")
	metrics := fs.String("metrics", "", "comma-separated metric columns to gate on (default: every numeric column but wall_ms and events_per_sec)")
	fs.Parse(args)
	if fs.NArg() != 2 {
		fatal(fmt.Errorf("diff needs exactly two lakes: flexfarm diff BASELINE CANDIDATE"))
	}
	base, err := lake.Load(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	cand, err := lake.Load(fs.Arg(1))
	if err != nil {
		fatal(err)
	}
	var gate []string
	if *metrics != "" {
		gate = splitList(*metrics)
	}
	rep, err := lake.Diff(base, cand, lake.Tolerance{Pct: *tolPct, Abs: *tolAbs}, gate)
	if err != nil {
		fatal(err)
	}
	if err := rep.WriteText(os.Stdout); err != nil {
		fatal(err)
	}
	if !rep.Clean() {
		os.Exit(1)
	}
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
