package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"flexpass/internal/chaos"
)

// chaosCmd dispatches the chaos-search verbs:
//
//	flexfarm chaos run    -spec chaos.json -out DIR [-trials N] [-seed S] [-workers N] [-shrink] [-v]
//	flexfarm chaos shrink REPRO.json [-out FILE] [-deadline D] [-stall D] [-v]
//
// A repro replays with `flexsim -fault REPRO.json`.
func chaosCmd(args []string) {
	if len(args) < 1 {
		fatal(fmt.Errorf("chaos needs a verb: run or shrink"))
	}
	switch args[0] {
	case "run":
		chaosRunCmd(args[1:])
	case "shrink":
		chaosShrinkCmd(args[1:])
	default:
		fatal(fmt.Errorf("unknown chaos verb %q (want run or shrink; a repro replays with flexsim -fault)", args[0]))
	}
}

func chaosRunCmd(args []string) {
	fs := flag.NewFlagSet("chaos run", flag.ExitOnError)
	specPath := fs.String("spec", "", "chaos spec JSON file (required)")
	out := fs.String("out", "", "output directory for trials.jsonl and repro-*.json (required)")
	trials := fs.Int("trials", 0, "override the spec's trial count")
	seed := fs.Int64("seed", -1, "override the spec's seed")
	workers := fs.Int("workers", 0, "concurrent trials (0 = all cores)")
	shrink := fs.Bool("shrink", false, "delta-debug each failing trial to a minimal repro in place")
	verbose := fs.Bool("v", false, "log one line per trial")
	fs.Parse(args)
	if *specPath == "" || *out == "" {
		fatal(fmt.Errorf("chaos run needs -spec and -out"))
	}
	spec, err := chaos.ParseSpecFile(*specPath)
	if err != nil {
		fatal(err)
	}
	if *trials > 0 {
		spec.Trials = *trials
	}
	if *seed >= 0 {
		spec.Seed = *seed
	}
	ts, err := chaos.Generate(spec)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "chaos %q: %d trials (seed %d, digest %s) -> %s\n",
		spec.Name, len(ts), spec.Seed, chaos.Digest(ts), *out)

	// SIGINT stops dispatching new trials; in-flight trials finish and
	// everything completed so far still lands in trials.jsonl.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opt := chaos.SoakOptions{
		Workers: *workers,
		Ctx:     ctx,
		OutDir:  *out,
	}
	if *verbose {
		opt.Progress = func(tr chaos.TrialResult) {
			fmt.Fprintf(os.Stderr, "trial %3d  %-10s %6.0fms  %s\n",
				tr.Trial.Index, tr.Verdict.Outcome, tr.ElapsedMS, tr.Verdict.Detail)
		}
	} else {
		opt.Progress = func(tr chaos.TrialResult) {
			if tr.Verdict.Failed() {
				fmt.Fprintf(os.Stderr, "FAIL trial %d (%s): %s\n",
					tr.Trial.Index, tr.Verdict.Outcome, tr.Verdict.Detail)
			}
		}
	}
	rep, err := chaos.Soak(spec, ts, opt)
	if err != nil {
		fatal(err)
	}
	if *shrink && rep.Failed > 0 {
		opt := chaos.ShrinkOptions{
			Deadline: time.Duration(spec.DeadlineMS * float64(time.Millisecond)),
			Stall:    time.Duration(spec.StallMS * float64(time.Millisecond)),
		}
		for _, tr := range rep.Results {
			if !tr.Verdict.Failed() || tr.ReproPath == "" {
				continue
			}
			if ctx.Err() != nil {
				break
			}
			if err := shrinkFile(tr.ReproPath, tr.ReproPath, opt, *verbose); err != nil {
				fmt.Fprintf(os.Stderr, "shrink %s: %v\n", tr.ReproPath, err)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "chaos %q: %d passed, %d failed of %d", spec.Name, rep.Passed, rep.Failed, rep.Trials)
	if rep.Canceled {
		fmt.Fprint(os.Stderr, " (interrupted)")
	}
	fmt.Fprintln(os.Stderr)
	for o, n := range rep.ByOutcome {
		if o != chaos.OutcomePass {
			fmt.Fprintf(os.Stderr, "  %-10s %d\n", o, n)
		}
	}
	if rep.Failed > 0 || rep.Canceled {
		os.Exit(1)
	}
}

// shrinkFile minimizes the repro at path and writes it to target (path
// itself to shrink in place), logging the result when verbose.
func shrinkFile(path, target string, opt chaos.ShrinkOptions, verbose bool) error {
	r, err := chaos.ParseReproFile(path)
	if err != nil {
		return err
	}
	res, err := chaos.Shrink(r, opt)
	if err != nil {
		return err
	}
	if err := res.Repro.WriteFile(target); err != nil {
		return err
	}
	if verbose {
		fmt.Fprintf(os.Stderr, "shrunk %s: %d->%d fault events, %d->%d flows (%d probes) -> %s\n",
			path, res.EventsBefore, res.EventsAfter, res.FlowsBefore, res.FlowsAfter, res.Probes, target)
	}
	return nil
}

func chaosShrinkCmd(args []string) {
	fs := flag.NewFlagSet("chaos shrink", flag.ExitOnError)
	out := fs.String("out", "", "write the shrunk repro here (default: overwrite the input)")
	deadline := fs.Duration("deadline", 0, "wall-clock kill per probe replay (0 = off)")
	stall := fs.Duration("stall", 0, "engine-horizon stall kill per probe replay (0 = off)")
	verbose := fs.Bool("v", false, "log every probe")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fatal(fmt.Errorf("chaos shrink needs exactly one repro file"))
	}
	opt := chaos.ShrinkOptions{Deadline: *deadline, Stall: *stall}
	if *verbose {
		opt.Progress = func(probe, events, flows int, v chaos.Verdict) {
			fmt.Fprintf(os.Stderr, "probe %3d: %d events, %d flows -> %s\n", probe, events, flows, v.Outcome)
		}
	}
	target := *out
	if target == "" {
		target = fs.Arg(0)
	}
	if err := shrinkFile(fs.Arg(0), target, opt, true); err != nil {
		fatal(err)
	}
}
