// Command flexplot renders the figure CSVs in results/ — the `flexfarm
// query -series` throughput series of the testbed figures and the
// `flexfarm query -csv` tables of the rest — and the JSONL run artifacts
// cmd/flexsim -telemetry-out writes, as ASCII charts in the terminal.
//
//	flexplot results/fig1a.csv              # time series (Gbps over ms)
//	flexplot -x deployment -y 'mean(p99_small_us)' -group scheme results/fig10_12_13.csv
//	flexplot run.jsonl                      # list available telemetry series
//	flexplot -y bytes -entity 'port/tor0:up0/q1' run.jsonl
//	flexplot -y tx_bytes -rate run.jsonl    # delta series as bytes/sec
//	flexplot timeline run.jsonl             # list forensic timelines + violations
//	flexplot timeline -flow 42 run.jsonl    # one flow's hop-by-hop journey
//	flexplot perfetto -out trace.json run.jsonl  # Chrome trace-event JSON for ui.perfetto.dev
package main

import (
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"flexpass/internal/obs"
	"flexpass/internal/perfetto"
	"flexpass/internal/plot"
	"flexpass/internal/sim"
)

var (
	xCol   = flag.String("x", "", "x column (default: first column)")
	yCol   = flag.String("y", "", "y column (default: all remaining numeric columns); for .jsonl artifacts, the series metric to plot")
	group  = flag.String("group", "", "split series by this column's values")
	entity = flag.String("entity", "", "for .jsonl artifacts: only plot series whose entity contains this substring")
	rate   = flag.Bool("rate", false, "for .jsonl artifacts: convert delta series to a per-second rate")
	title  = flag.String("title", "", "chart title (default: file name)")
	width  = flag.Int("w", 72, "chart width")
	height = flag.Int("h", 20, "chart height")
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "timeline" {
		timelineCmd(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "perfetto" {
		perfettoCmd(os.Args[2:])
		return
	}
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: flexplot [flags] <file.csv|run.jsonl>")
		fmt.Fprintln(os.Stderr, "       flexplot timeline [-flow <id>] <run.jsonl>")
		fmt.Fprintln(os.Stderr, "       flexplot perfetto [-out trace.json] <run.jsonl>")
		os.Exit(2)
	}
	path := flag.Arg(0)
	if strings.HasSuffix(path, ".jsonl") {
		plotArtifact(path)
		return
	}
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		fatal(err)
	}
	if len(rows) < 2 {
		fatal(fmt.Errorf("%s: no data rows", path))
	}
	header := rows[0]
	col := func(name string) int {
		for i, h := range header {
			if h == name {
				return i
			}
		}
		fatal(fmt.Errorf("column %q not in %v", name, header))
		return -1
	}

	xi := 0
	if *xCol != "" {
		xi = col(*xCol)
	}
	chartTitle := *title
	if chartTitle == "" {
		chartTitle = path
	}
	ch := &plot.Chart{Title: chartTitle, XLabel: header[xi], Width: *width, Height: *height}

	if *group != "" {
		gi := col(*group)
		yi := col(*yCol)
		series := map[string]*plot.Series{}
		var order []string
		for _, row := range rows[1:] {
			x, errX := strconv.ParseFloat(row[xi], 64)
			y, errY := strconv.ParseFloat(row[yi], 64)
			if errX != nil || errY != nil {
				continue
			}
			key := row[gi]
			s, ok := series[key]
			if !ok {
				s = &plot.Series{Name: key}
				series[key] = s
				order = append(order, key)
			}
			s.X = append(s.X, x)
			s.Y = append(s.Y, y)
		}
		for _, k := range order {
			ch.Series = append(ch.Series, *series[k])
		}
		ch.YLabel = *yCol
	} else {
		// One series per numeric column (or just -y).
		for yi, name := range header {
			if yi == xi {
				continue
			}
			if *yCol != "" && name != *yCol {
				continue
			}
			s := plot.Series{Name: name}
			for _, row := range rows[1:] {
				x, errX := strconv.ParseFloat(row[xi], 64)
				y, errY := strconv.ParseFloat(row[yi], 64)
				if errX != nil || errY != nil {
					continue
				}
				s.X = append(s.X, x)
				s.Y = append(s.Y, y)
			}
			if len(s.X) > 0 {
				ch.Series = append(ch.Series, s)
			}
		}
	}
	if err := ch.Render(os.Stdout); err != nil {
		fatal(err)
	}
}

// plotArtifact renders series from a flexsim or flexfarm telemetry run
// artifact. Without -y it lists what the artifact contains.
func plotArtifact(path string) {
	run, err := obs.ReadJSONLFile(path)
	if err != nil {
		fatal(err)
	}
	m := run.Manifest
	if *yCol == "" {
		fmt.Printf("%s: scheme=%s workload=%s seed=%d load=%.2f deployment=%.2f\n",
			path, m.Scheme, m.Workload, m.Seed, m.Load, m.Deployment)
		fmt.Printf("%d series, %d counters, %d histograms, %d trace events; %.0f events/sec\n\n",
			len(run.Series), len(run.Counters), len(run.Hists), len(run.Trace), m.EventsPerSec)
		fmt.Println("series (pick one with -y <metric> [-entity <substr>]):")
		seen := map[string]int{}
		var order []string
		for _, s := range run.Series {
			key := s.Metric + " (" + s.Kind + ")"
			if _, ok := seen[key]; !ok {
				order = append(order, key)
			}
			seen[key]++
		}
		for _, k := range order {
			fmt.Printf("  %-28s ×%d entities\n", k, seen[k])
		}
		return
	}

	chartTitle := *title
	if chartTitle == "" {
		chartTitle = fmt.Sprintf("%s: %s", path, *yCol)
	}
	ch := &plot.Chart{Title: chartTitle, XLabel: "time_ms", YLabel: *yCol,
		Width: *width, Height: *height}
	for _, s := range run.SeriesMatching(*yCol) {
		if *entity != "" && !strings.Contains(s.Entity, *entity) {
			continue
		}
		ps := plot.Series{Name: s.Entity}
		intervalSec := float64(s.IntervalPs) * 1e-12
		s.Values.Each(func(i int, v int64) {
			// Sample i covers (start+(i-1)·interval, start+i·interval];
			// plot it at the window's closing edge.
			t := float64(s.StartPs+int64(i)*s.IntervalPs) * 1e-9 // ms
			y := float64(v)
			if *rate && s.Kind == "delta" && intervalSec > 0 {
				y /= intervalSec
			}
			ps.X = append(ps.X, t)
			ps.Y = append(ps.Y, y)
		})
		if len(ps.X) > 0 {
			ch.Series = append(ch.Series, ps)
		}
	}
	if len(ch.Series) == 0 {
		fatal(fmt.Errorf("no series match -y %q -entity %q (run without -y to list)", *yCol, *entity))
	}
	if *rate {
		ch.YLabel = *yCol + "/sec"
	}
	if err := ch.Render(os.Stdout); err != nil {
		fatal(err)
	}
}

// timelineCmd renders the forensics lines of a run artifact (written by
// flexsim -forensics-out): without -flow it lists violations and the
// exported timelines; with -flow it prints that flow's hop-by-hop
// journey merged chronologically with its transport lifecycle events.
// perfettoCmd converts a run artifact into Chrome trace-event JSON for
// ui.perfetto.dev: per-flow tracks from the trace ring, per-port tracks
// from forensic hop records, and a fault-action track.
func perfettoCmd(args []string) {
	fs := flag.NewFlagSet("perfetto", flag.ExitOnError)
	out := fs.String("out", "", "output file (default stdout)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: flexplot perfetto [-out trace.json] <run.jsonl>")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 1 {
		fs.Usage()
		os.Exit(2)
	}
	run, err := obs.ReadJSONLFile(fs.Arg(0))
	if err != nil {
		var corrupt *obs.CorruptArtifactError
		if run == nil || !errors.As(err, &corrupt) {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "flexplot: warning: %v — converting the salvaged prefix\n", err)
	}
	if len(run.Trace) == 0 && len(run.Forensics) == 0 && len(run.Faults) == 0 {
		fatal(fmt.Errorf("%s has no trace, forensics, or fault lines (produce them with flexsim -telemetry-out -trace-ring N, or -forensics-out)", fs.Arg(0)))
	}
	tr := perfetto.Convert(run)
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := tr.Write(w); err != nil {
		fatal(err)
	}
	if *out != "" {
		fmt.Fprintf(os.Stderr, "wrote %d trace events to %s (open in ui.perfetto.dev)\n", len(tr.TraceEvents), *out)
	}
}

func timelineCmd(args []string) {
	fs := flag.NewFlagSet("timeline", flag.ExitOnError)
	flow := fs.Uint64("flow", 0, "flow ID to render (0 lists available timelines)")
	maxHops := fs.Int("hops", obs.TimelineRows, "cap on printed hop records (0 = all)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: flexplot timeline [-flow <id>] [-hops <n>] <run.jsonl>")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 1 {
		fs.Usage()
		os.Exit(2)
	}
	run, err := obs.ReadJSONLFile(fs.Arg(0))
	if err != nil {
		var corrupt *obs.CorruptArtifactError
		if run == nil || !errors.As(err, &corrupt) {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "flexplot: warning: %v — rendering the salvaged prefix\n", err)
	}
	if len(run.Forensics) == 0 {
		fatal(fmt.Errorf("%s has no forensics lines (produce one with flexsim -forensics-out)", fs.Arg(0)))
	}

	if vs := run.Violations(); len(vs) > 0 {
		fmt.Printf("%d invariant violations:\n", len(vs))
		for _, v := range vs {
			fmt.Println("  " + v.String())
		}
		fmt.Println()
	}

	if len(run.Faults) > 0 {
		fmt.Printf("%d fault-plan actions:\n", len(run.Faults))
		for _, f := range run.Faults {
			line := fmt.Sprintf("  %12v  ⚡ %-12s %s", sim.Time(f.AtPs), f.Kind, f.Link)
			if f.Value != 0 {
				line += fmt.Sprintf(" (%g)", f.Value)
			}
			fmt.Println(line)
		}
		fmt.Println()
	}

	if *flow == 0 {
		tls := run.Timelines()
		fmt.Printf("%d flow timelines (render one with -flow <id>):\n", len(tls))
		fmt.Printf("  %-10s %-10s %10s %12s %9s %6s %7s\n",
			"flow", "transport", "size", "fct", "slowdown", "hops", "events")
		for _, t := range tls {
			fct := "incomplete"
			if t.FctPs >= 0 {
				fct = sim.Time(t.FctPs).String()
			}
			fmt.Printf("  %-10d %-10s %9dB %12s %9.2f %6d %7d\n",
				t.Flow, t.Transport, t.Size, fct, t.Slowdown, len(t.Hops), len(t.Events))
		}
		return
	}

	t := run.FindTimeline(*flow)
	if t == nil {
		fatal(fmt.Errorf("flow %d has no timeline in this artifact (flexsim -trace-flow %d forces one)", *flow, *flow))
	}
	if err := t.Render(os.Stdout, run.Faults, *maxHops, "-hops or the HopCap"); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "flexplot:", err)
	os.Exit(1)
}
