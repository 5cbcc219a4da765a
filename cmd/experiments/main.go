// Command experiments regenerates the paper's testbed figures — Figs 1,
// 7, 8 and 9, time series and incast tails on 10 GbE single-switch and
// dumbbell layouts — printing readable tables and writing CSV series
// under -out, and runs the -figs robustness degradation report.
//
// The deployment figures (Figs 5, 10-18 and the §4.3 ablations) are farm
// sweeps: a spec per figure under ci/figures/ and one `flexfarm query`
// each (`make figs`). -full, -dur and -workload-plan shape the
// robustness run's base scenario.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"flexpass/internal/faults"
	"flexpass/internal/harness"
	"flexpass/internal/obs"
	"flexpass/internal/sim"
	"flexpass/internal/units"
	"flexpass/internal/workload"
)

var (
	outDir    = flag.String("out", "results", "output directory for CSV files")
	full      = flag.Bool("full", false, "robustness run on the paper-scale fabric and durations")
	figs      = flag.String("figs", "all", "comma-separated figure list (1,7,8,9,robustness) or 'all'")
	seed      = flag.Int64("seed", 1, "random seed")
	durMS     = flag.Float64("dur", 0, "override the robustness run's flow arrival window (milliseconds)")
	pprofOut  = flag.String("pprof", "", "write a CPU profile of the experiment run to this file")
	memOut    = flag.String("memprofile", "", "write a heap profile (post-run, after GC) to this file")
	wlPlan    = flag.String("workload-plan", "", "JSON workload-plan file driving the base scenario's traffic (composable sources; see internal/workload)")
	faultFile = flag.String("fault-plan", "", "JSON fault plan for the robustness run (default: a built-in ToR-uplink flap + burst-loss plan)")
	faultSpec = flag.String("fault", "", "inline fault shorthand for the robustness run (see flexsim -fault)")
)

func main() {
	flag.Parse()
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	want := map[string]bool{}
	for _, f := range strings.Split(*figs, ",") {
		want[strings.TrimSpace(f)] = true
	}
	all := want["all"]
	sel := func(name string) bool { return all || want[name] }

	base := harness.BaseScenario(*full)
	base.Seed = *seed
	if *durMS > 0 {
		base.Duration = sim.Time(*durMS * float64(sim.Millisecond))
	}
	if *wlPlan != "" {
		p, err := workload.ParsePlanFile(*wlPlan)
		if err != nil {
			fatal(err)
		}
		base.WorkloadPlan = p
	}
	microDur := 80 * sim.Millisecond

	if *pprofOut != "" {
		stop, err := obs.StartCPUProfile(*pprofOut)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := stop(); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "cpu profile written to %s\n", *pprofOut)
		}()
	}
	if *memOut != "" {
		defer func() {
			if err := obs.WriteHeapProfile(*memOut); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "heap profile written to %s\n", *memOut)
		}()
	}

	start := time.Now()
	if sel("1") {
		fig1(microDur)
	}
	if sel("9") {
		fig9(microDur)
	}
	if sel("7") {
		fig7(microDur)
	}
	if sel("8") {
		fig8()
	}
	if sel("robustness") {
		robustness(base)
	}
	fmt.Printf("\nall requested experiments done in %v; CSVs in %s/\n",
		time.Since(start).Round(time.Second), *outDir)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}

func writeCSV(name string, header []string, rows [][]string) {
	path := filepath.Join(*outDir, name)
	var b strings.Builder
	b.WriteString(strings.Join(header, ","))
	b.WriteByte('\n')
	for _, r := range rows {
		b.WriteString(strings.Join(r, ","))
		b.WriteByte('\n')
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		fatal(err)
	}
}

func seriesCSV(name string, s *harness.ThroughputSeries) {
	header := []string{"time_ms"}
	header = append(header, s.Names...)
	var rows [][]string
	n := 0
	for _, nm := range s.Names {
		if len(s.Series[nm]) > n {
			n = len(s.Series[nm])
		}
	}
	for i := 0; i < n; i++ {
		row := []string{fmt.Sprintf("%.1f", (sim.Time(i+1) * s.Interval).Millis())}
		for _, nm := range s.Names {
			v := units.Rate(0)
			if i < len(s.Series[nm]) {
				v = s.Series[nm][i]
			}
			row = append(row, fmt.Sprintf("%.3f", v.Gbits()))
		}
		rows = append(rows, row)
	}
	writeCSV(name, header, rows)
}

func meanTail(rs []units.Rate) units.Rate {
	if len(rs) < 6 {
		return 0
	}
	var sum int64
	for _, r := range rs[5:] {
		sum += int64(r)
	}
	return units.Rate(sum / int64(len(rs)-5))
}

func fig1(dur sim.Time) {
	fmt.Println("== Figure 1: proactive transports starve DCTCP (10G dumbbell) ==")
	a := harness.Fig1a(*seed, dur)
	seriesCSV("fig1a.csv", a)
	fmt.Printf("  (a) ExpressPass %.2fGbps vs DCTCP %.2fGbps (steady state)\n",
		meanTail(a.Series["ExpressPass"]).Gbits(), meanTail(a.Series["DCTCP"]).Gbits())
	b := harness.Fig1b(*seed, dur)
	seriesCSV("fig1b.csv", b)
	fmt.Printf("  (b) HOMA %.2fGbps vs DCTCP %.2fGbps (16+16 flows)\n",
		meanTail(b.Series["HOMA"]).Gbits(), meanTail(b.Series["DCTCP"]).Gbits())
}

func fig9(dur sim.Time) {
	fmt.Println("== Figure 9: starvation time (2-to-1 testbed) ==")
	r := harness.Fig9(*seed, dur)
	seriesCSV("fig9a.csv", r.ExpressPass)
	seriesCSV("fig9b.csv", r.FlexPass)
	writeCSV("fig9c.csv", []string{"scheme", "dctcp_starved_frac"}, [][]string{
		{"expresspass", fmt.Sprintf("%.4f", r.StarvedExpressPassSide)},
		{"flexpass", fmt.Sprintf("%.4f", r.StarvedFlexPassSide)},
	})
	fmt.Printf("  DCTCP starvation time: %.1f%% under naive ExpressPass, %.1f%% under FlexPass\n",
		r.StarvedExpressPassSide*100, r.StarvedFlexPassSide*100)
}

func fig7(dur sim.Time) {
	fmt.Println("== Figure 7: sub-flow throughput shares (testbed) ==")
	for _, v := range []string{"a", "b", "c"} {
		s := harness.Fig7(v, *seed, dur)
		seriesCSV("fig7"+v+".csv", s)
		var parts []string
		for _, nm := range s.Names {
			parts = append(parts, fmt.Sprintf("%s %.2fG", nm, meanTail(s.Series[nm]).Gbits()))
		}
		fmt.Printf("  (%s) %s\n", v, strings.Join(parts, ", "))
	}
}

func fig8() {
	fmt.Println("== Figure 8: incast tail FCT (8-to-1, 64kB responses) ==")
	counts := []int{8, 16, 24, 32, 40, 48, 56, 64, 72, 80, 88, 96}
	rows := harness.Fig8(counts, []int64{*seed, *seed + 1})
	var csv [][]string
	for _, r := range rows {
		csv = append(csv, []string{
			fmt.Sprint(r.Flows), r.Transport,
			fmt.Sprintf("%.3f", r.MaxFCT.Millis()), fmt.Sprint(r.Timeouts),
		})
	}
	writeCSV("fig8.csv", []string{"flows", "transport", "max_fct_ms", "timeouts"}, csv)
	fmt.Printf("  %-6s %-12s %-12s %s\n", "flows", "transport", "maxFCT", "timeouts")
	for _, r := range rows {
		fmt.Printf("  %-6d %-12s %-12v %d\n", r.Flows, r.Transport, r.MaxFCT, r.Timeouts)
	}
}

// defaultFaultPlan is the built-in robustness scenario: flap one ToR
// downlink for 1ms, then 4ms of bursty loss on a ToR uplink. Both port
// names exist in the small and paper Clos alike.
func defaultFaultPlan() *faults.Plan {
	p, err := faults.ParseSpec(
		"down@tor0.0->h0.0.0@2ms-3ms,burst@tor0.0<->agg0.0:fwd@4ms-8ms")
	if err != nil {
		panic(err) // static spec; cannot fail
	}
	p.Name = "builtin-flap-burst"
	return p
}

func robustness(base harness.Scenario) {
	plan := defaultFaultPlan()
	var err error
	if *faultFile != "" {
		plan, err = faults.ParsePlanFile(*faultFile)
	} else if *faultSpec != "" {
		plan, err = faults.ParseSpec(*faultSpec)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Println("== Robustness: graceful degradation under scripted faults ==")
	d := harness.RunDegradation(base, plan, nil)
	fmt.Print(d.String())
	stem := filepath.Join(*outDir, "robustness")
	if err := d.WriteFiles(stem); err != nil {
		fatal(err)
	}
	fmt.Printf("  degradation report in %s.csv and %s.jsonl\n", stem, stem)
}
