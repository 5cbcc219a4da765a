// Command experiments regenerates every table and figure of the paper's
// evaluation (§2, §4.3, §6, Appendix A), printing readable tables and
// writing CSV series under -out.
//
// By default it runs at a reduced scale (smaller Clos, shorter traces)
// that finishes on a laptop; -full uses the paper's 192-host fabric and
// durations (hours of CPU).
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
	full      = flag.Bool("full", false, "paper-scale fabric and durations")
	figs      = flag.String("figs", "all", "comma-separated figure list (1,5,7,8,9,10,11,14,15,17,18,queue,robustness) or 'all'")
	seed      = flag.Int64("seed", 1, "random seed")
	seedsN    = flag.Int("seeds", 1, "pool each deployment point over this many seeds")
	durMS     = flag.Float64("dur", 0, "override flow arrival window (milliseconds)")
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
	if *seedsN > 1 {
		for i := 0; i < *seedsN; i++ {
			base.PoolSeeds = append(base.PoolSeeds, *seed+int64(i))
		}
	}
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
	if sel("10") {
		fig10(base)
	}
	if sel("11") {
		fig11(base)
	}
	if sel("5") {
		fig5(base)
	}
	if sel("14") {
		fig14(base)
	}
	if sel("15") {
		fig15(base)
	}
	if sel("17") {
		fig17(base)
	}
	if sel("18") {
		fig18(base)
	}
	if sel("ablations") || all {
		ablations(base)
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

func pointsCSV(name string, pts []harness.DeploymentPoint) {
	var rows [][]string
	for _, p := range pts {
		rows = append(rows, []string{
			string(p.Scheme), fmt.Sprintf("%.2f", p.Deployment),
			fmt.Sprintf("%.2f", p.Load), p.Workload, fmt.Sprintf("%.2f", p.WQ),
			fmt.Sprintf("%.1f", p.P99Small.Micros()),
			fmt.Sprintf("%.1f", p.AvgAll.Micros()),
			fmt.Sprintf("%.1f", p.P99SmallLegacy.Micros()),
			fmt.Sprintf("%.1f", p.P99SmallNew.Micros()),
			fmt.Sprintf("%.1f", p.StdSmallLegacy.Micros()),
			fmt.Sprintf("%.1f", p.StdSmallNew.Micros()),
			fmt.Sprintf("%.2f", p.AvgReorderKB),
			fmt.Sprintf("%.5f", p.RedundantFrac),
			fmt.Sprint(p.QueueAvg), fmt.Sprint(p.QueueP90),
			fmt.Sprint(p.QueueRedAvg), fmt.Sprint(p.QueueRedP90),
			fmt.Sprint(p.Timeouts), fmt.Sprint(p.Incomplete),
		})
	}
	writeCSV(name, []string{
		"scheme", "deployment", "load", "workload", "wq",
		"p99_small_us", "avg_all_us", "p99_small_legacy_us", "p99_small_new_us",
		"std_small_legacy_us", "std_small_new_us", "avg_reorder_kb",
		"redundant_frac", "q1_avg_b", "q1_p90_b", "q1_red_avg_b", "q1_red_p90_b",
		"timeouts", "incomplete",
	}, rows)
}

func printPoints(pts []harness.DeploymentPoint) {
	fmt.Printf("  %-14s %-5s %-10s %-10s %-10s %-10s\n",
		"scheme", "dep", "p99small", "avgAll", "p99sLegacy", "p99sNew")
	for _, p := range pts {
		fmt.Printf("  %-14s %-5.2f %-10v %-10v %-10v %-10v\n",
			p.Scheme, p.Deployment, p.P99Small, p.AvgAll, p.P99SmallLegacy, p.P99SmallNew)
	}
}

func fig10(base harness.Scenario) {
	fmt.Println("== Figures 10/12/13 + queue occupancy: deployment sweep (web search) ==")
	pts := harness.Fig10(base)
	pointsCSV("fig10_12_13.csv", pts)
	printPoints(pts)
	for _, p := range pts {
		if p.Scheme == harness.SchemeFlexPass && (p.Deployment == 0.5 || p.Deployment == 1.0) {
			fmt.Printf("  [queue] flexpass dep=%.0f%%: Q1 avg %dB (red %dB), p90 %dB (red %dB); redundancy %.2f%%\n",
				p.Deployment*100, p.QueueAvg, p.QueueRedAvg, p.QueueP90, p.QueueRedP90, p.RedundantFrac*100)
		}
	}
}

func fig11(base harness.Scenario) {
	fmt.Println("== Figure 11: deployment sweep with 10% foreground incast ==")
	pts := harness.Fig11(base)
	pointsCSV("fig11.csv", pts)
	printPoints(pts)
}

func fig5(base harness.Scenario) {
	fmt.Println("== Figure 5: flow-splitting and queueing ablations ==")
	a := harness.Fig5a(base)
	pointsCSV("fig5a.csv", a)
	for _, p := range a {
		fmt.Printf("  (a) %-14s dep=%.2f p99small=%v reorder=%.1fkB\n",
			p.Scheme, p.Deployment, p.P99Small, p.AvgReorderKB)
	}
	b := harness.Fig5b(base)
	pointsCSV("fig5b.csv", b)
	for _, p := range b {
		fmt.Printf("  (b) %-14s dep=%.2f p99small=%v\n", p.Scheme, p.Deployment, p.P99Small)
	}
}

func fig14(base harness.Scenario) {
	fmt.Println("== Figure 14: load sensitivity (10/40/70%) ==")
	pts := harness.Fig14(base, []float64{0.1, 0.4, 0.7})
	pointsCSV("fig14.csv", pts)
	fmt.Printf("  %-14s %-5s %-5s %-10s\n", "scheme", "load", "dep", "p99small")
	for _, p := range pts {
		fmt.Printf("  %-14s %-5.1f %-5.2f %-10v\n", p.Scheme, p.Load, p.Deployment, p.P99Small)
	}
}

func fig15(base harness.Scenario) {
	fmt.Println("== Figures 15/16: workload sweep ==")
	pts := harness.Fig15and16(base, []string{"cachefollower", "websearch", "datamining", "hadoop"})
	pointsCSV("fig15_16.csv", pts)
	fmt.Printf("  %-14s %-14s %-5s %-10s %-10s\n", "workload", "scheme", "dep", "p99small", "avgAll")
	for _, p := range pts {
		fmt.Printf("  %-14s %-14s %-5.2f %-10v %-10v\n", p.Workload, p.Scheme, p.Deployment, p.P99Small, p.AvgAll)
	}
}

func fig17(base harness.Scenario) {
	fmt.Println("== Figure 17: selective-dropping threshold trade-off (full deployment) ==")
	pts := harness.Fig17(base, []units.ByteSize{
		50 * units.KB, 100 * units.KB, 150 * units.KB, 200 * units.KB,
	})
	var rows [][]string
	thresholds := []int{50, 100, 150, 200}
	fmt.Printf("  %-12s %-10s %-10s\n", "threshold", "p99small", "avgAll")
	for i, p := range pts {
		fmt.Printf("  %-12s %-10v %-10v\n", fmt.Sprintf("%dkB", thresholds[i]), p.P99Small, p.AvgAll)
		rows = append(rows, []string{
			fmt.Sprint(thresholds[i]),
			fmt.Sprintf("%.1f", p.P99Small.Micros()),
			fmt.Sprintf("%.1f", p.AvgAll.Micros()),
			fmt.Sprint(p.QueueAvg), fmt.Sprint(p.QueueP90),
		})
	}
	writeCSV("fig17.csv", []string{"threshold_kb", "p99_small_us", "avg_all_us", "q1_avg_b", "q1_p90_b"}, rows)
}

func ablations(base harness.Scenario) {
	fmt.Println("== Design-choice ablations (50% deployment) ==")
	rows := harness.Ablations(base)
	var csv [][]string
	fmt.Printf("  %-20s %-10s %-10s %-10s %-8s %s\n",
		"variant", "p99small", "avgAll", "reorderKB", "RTOs", "redundant")
	for _, r := range rows {
		p := r.Point
		fmt.Printf("  %-20s %-10v %-10v %-10.1f %-8d %.4f\n",
			r.Name, p.P99Small, p.AvgAll, p.AvgReorderKB, p.Timeouts, p.RedundantFrac)
		csv = append(csv, []string{
			r.Name,
			fmt.Sprintf("%.1f", p.P99Small.Micros()),
			fmt.Sprintf("%.1f", p.AvgAll.Micros()),
			fmt.Sprintf("%.2f", p.AvgReorderKB),
			fmt.Sprint(p.Timeouts),
			fmt.Sprintf("%.5f", p.RedundantFrac),
		})
	}
	writeCSV("ablations.csv", []string{"variant", "p99_small_us", "avg_all_us", "reorder_kb", "timeouts", "redundant_frac"}, csv)
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

func fig18(base harness.Scenario) {
	fmt.Println("== Figure 18: queue-weight (w_q) trade-off ==")
	rows := harness.Fig18(base, []float64{0.4, 0.45, 0.5, 0.55, 0.6})
	var csv [][]string
	fmt.Printf("  %-6s %-22s %-12s\n", "wq", "maxLegacyDegradation", "p99smallFull")
	for _, r := range rows {
		fmt.Printf("  %-6.2f %-22.1f%% %-12v\n", r.WQ, r.MaxLegacyDegradation*100, r.P99SmallFull)
		csv = append(csv, []string{
			fmt.Sprintf("%.2f", r.WQ),
			fmt.Sprintf("%.4f", r.MaxLegacyDegradation),
			fmt.Sprintf("%.1f", r.P99SmallFull.Micros()),
		})
	}
	writeCSV("fig18.csv", []string{"wq", "max_legacy_degradation", "p99_small_full_us"}, csv)
}
