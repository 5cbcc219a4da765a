// Command benchpair measures a change against a base revision the way a
// speed or memory claim must be measured: the standing benchmark
// (./bench) built at both revisions, run in alternating pairs on one box
// at one seed, and for every workload and every end-to-end metric
// BENCHMARK.json names, each side's median and quartiles and the number
// of pairs the change won.
//
//	go run ./ci/benchpair -base <rev> [-pairs 10] [-workload observed] [-seed 1] [-out bench-pair.json]
//
// The base is checked out with `git worktree` under .bench_build/ and
// built there; the change is the working tree. Pair i runs the base first
// when i is even and the change first when it is odd, so slow drift of the
// host lands on both sides alike. Each run is one `bench -reps 1` process,
// read through the summary line it prints; a metric or workload missing
// from one side stops the run. The output is a lake.BenchReport, which
// `flexfarm bench` reads: each metric is marked claimable by the house
// claim rule and regressed by the bound BENCHMARK.json gives it (see
// compare).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"flexpass/internal/lake"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "benchpair: %v\n", err)
		os.Exit(1)
	}
}

// metric is one end-to-end metric as BENCHMARK.json declares it.
type metric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // the relative worsening that counts as a regression
}

// runs is what one side's runs of one workload read, run by run.
type runs struct {
	digests []string
	failed  int
	metrics map[string][]float64
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchpair", flag.ContinueOnError)
	base := fs.String("base", "", "base revision to compare the working tree against (required)")
	pairs := fs.Int("pairs", 10, "alternating base/change pairs")
	workload := fs.String("workload", "", "run only this workload (default: all)")
	seed := fs.Int64("seed", 1, "benchmark workload seed")
	out := fs.String("out", "bench-pair.json", "output file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *base == "" || *pairs < 1 || fs.NArg() > 0 {
		return errors.New("usage: benchpair -base <rev> [-pairs n] [-workload name] [-seed n] [-out file]")
	}
	root, err := output("", "git", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	metrics, err := endToEnd(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	baseRev, err := output(root, "git", "rev-parse", "--short=12", *base+"^{commit}")
	if err != nil {
		return err
	}
	build := filepath.Join(root, ".bench_build")
	bins := [2]string{filepath.Join(build, "bin", "base"), filepath.Join(build, "bin", "change")}
	if err := buildBase(root, filepath.Join(build, "base"), baseRev, bins[0]); err != nil {
		return err
	}
	if _, err := output(root, "go", "build", "-o", bins[1], "./bench"); err != nil {
		return err
	}

	got := [2]map[string]*runs{{}, {}} // per side, per workload
	var changeRev string
	sides := [2]string{"base", "change"}
	for i := 0; i < *pairs; i++ {
		for k := 0; k < 2; k++ {
			side := (i + k) % 2 // base first on even pairs, change first on odd
			fmt.Fprintf(os.Stderr, "benchpair: pair %d/%d, %s\n", i+1, *pairs, sides[side])
			sum, err := runBench(bins[side], filepath.Join(build, "pair"), *workload, *seed)
			if err != nil {
				return err
			}
			if side == 1 {
				changeRev = sum.Revision
			}
			if err := accumulate(got[side], sides[side], sum, metrics); err != nil {
				return err
			}
		}
	}

	workloads, err := pairUp(got, metrics)
	if err != nil {
		return err
	}
	rep := lake.BenchReport{GeneratedAt: time.Now().UTC().Format(time.RFC3339), Base: *base, BaseRevision: baseRev,
		ChangeRevision: changeRev, Seed: *seed, Pairs: *pairs, CPUs: runtime.NumCPU(), Workloads: workloads}
	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s\n", *out)
	return nil
}

// endToEnd reads the end-to-end metrics the benchmark contract names.
func endToEnd(path string) ([]metric, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b struct {
		EndToEnd []metric `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return b.EndToEnd, nil
}

// buildBase checks rev out as a worktree at dir, builds its benchmark to
// bin and removes the worktree again. The go command does not see a
// worktree as a repository and would stamp the binary with the enclosing
// checkout's revision, so the base binary carries none.
func buildBase(root, dir, rev, bin string) error {
	// A worktree an interrupted run left behind goes first.
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if _, err := output(root, "git", "worktree", "prune"); err != nil {
		return err
	}
	if _, err := output(root, "git", "worktree", "add", "--detach", dir, rev); err != nil {
		return err
	}
	_, err := output(dir, "go", "build", "-buildvcs=false", "-o", bin, "./bench")
	if _, rmErr := output(root, "git", "worktree", "remove", "--force", dir); err == nil {
		err = rmErr
	}
	return err
}

// summary is the part of bench's summary line benchpair reads.
type summary struct {
	Revision  string `json:"revision"`
	Workloads map[string]struct {
		Failed  int                `json:"failed"`
		Digest  string             `json:"digest"`
		Metrics map[string]float64 `json:"metrics"`
	} `json:"workloads"`
}

// runBench runs one benchmark process, one rep per workload, and reads
// its summary line, the JSON object that opens with the seed.
func runBench(bin, dir, workload string, seed int64) (*summary, error) {
	args := []string{"-reps", "1", "-seed", strconv.FormatInt(seed, 10), "-tmp", filepath.Join(dir, "tmp")}
	if workload != "" {
		args = append(args, "-workload", workload)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		os.Stderr.Write(out) // bench prints its failed checks here
		return nil, fmt.Errorf("%s %s: %w", bin, strings.Join(args, " "), err)
	}
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, `{"seed":`) {
			sum := &summary{}
			if err := json.Unmarshal([]byte(line), sum); err != nil {
				return nil, fmt.Errorf("%s: summary line: %w", bin, err)
			}
			return sum, nil
		}
	}
	return nil, fmt.Errorf("%s %s: no summary line", bin, strings.Join(args, " "))
}

// accumulate adds one run of one side to that side's per-workload runs.
// A metric the contract names but the run did not print is an error, not
// a zero.
func accumulate(got map[string]*runs, side string, sum *summary, metrics []metric) error {
	for w, ws := range sum.Workloads {
		r := got[w]
		if r == nil {
			r = &runs{metrics: map[string][]float64{}}
			got[w] = r
		}
		if !slices.Contains(r.digests, ws.Digest) {
			r.digests = append(r.digests, ws.Digest)
		}
		r.failed = max(r.failed, ws.Failed)
		for _, m := range metrics {
			v, ok := ws.Metrics[m.Name]
			if !ok {
				return fmt.Errorf("%s, workload %s: the summary line has no metric %s", side, w, m.Name)
			}
			r.metrics[m.Name] = append(r.metrics[m.Name], v)
		}
	}
	return nil
}

// pairUp compares the base's runs (got[0]) with the change's (got[1])
// workload by workload. A workload only one side ran is an error.
func pairUp(got [2]map[string]*runs, metrics []metric) (map[string]*lake.BenchWorkload, error) {
	for w := range got[0] {
		if got[1][w] == nil {
			return nil, fmt.Errorf("workload %s: only the base ran it", w)
		}
	}
	out := map[string]*lake.BenchWorkload{}
	for w, ch := range got[1] {
		b := got[0][w]
		if b == nil {
			return nil, fmt.Errorf("workload %s: only the change ran it", w)
		}
		wr := &lake.BenchWorkload{BaseDigests: b.digests, ChangeDigests: ch.digests, BaseFailed: b.failed,
			ChangeFailed: ch.failed, Metrics: map[string]*lake.Comparison{}}
		for _, m := range metrics {
			wr.Metrics[m.Name] = compare(m, b.metrics[m.Name], ch.metrics[m.Name])
		}
		out[w] = wr
	}
	return out, nil
}

// compare summarizes one metric's pairs: base[i] and change[i] ran as
// pair i. A gain is claimable by the house rule: at least 10 pairs, the
// change better in 9 of every 10, and its median further to the better
// side than the base's quartile spread. A regression is a median worse
// than the base's by more than the metric's bound.
func compare(m metric, base, change []float64) *lake.Comparison {
	c := &lake.Comparison{Better: m.Better, Base: summarize(base), Change: summarize(change), BaseRuns: base, Runs: change}
	sign := 1.0 // > 0 when the change reads better
	if m.Better == "lower" {
		sign = -1
	}
	pairs := min(len(base), len(change))
	for i := range pairs {
		switch d := sign * (change[i] - base[i]); {
		case d > 0:
			c.Wins++
		case d < 0:
			c.Losses++
		}
	}
	if c.Base.Median != 0 {
		c.DeltaPct = 100 * (c.Change.Median - c.Base.Median) / c.Base.Median
	}
	gain := sign * (c.Change.Median - c.Base.Median)
	c.Claimable = pairs >= 10 && 10*c.Wins >= 9*pairs && gain > c.Base.Q3-c.Base.Q1
	c.Regressed = -gain > m.Bound*math.Abs(c.Base.Median)
	return c
}

func summarize(vs []float64) lake.Quartiles {
	s := slices.Clone(vs)
	slices.Sort(s)
	return lake.Quartiles{Q1: quantile(s, 0.25), Median: quantile(s, 0.5), Q3: quantile(s, 0.75)}
}

// quantile interpolates linearly between the closest ranks of sorted s.
func quantile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}

// output runs a command in dir and returns its trimmed standard output.
func output(dir, name string, args ...string) (string, error) {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("%s %s: %w", name, strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(out)), nil
}
