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
// read through the summary line it prints. A metric whose base quartile spread
// is at least the distance between the two medians is marked not
// claimable: the base's own runs vary by more than the change moved it.
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
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "benchpair: %v\n", err)
		os.Exit(1)
	}
}

// metric is one end-to-end metric as BENCHMARK.json declares it.
type metric struct {
	Name   string `json:"name"`
	Better string `json:"better"` // "lower" or "higher"
}

// quartiles summarize one side's runs of one metric.
type quartiles struct {
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

// comparison is one (workload, metric) row of the output.
type comparison struct {
	Better    string    `json:"better"`
	Base      quartiles `json:"base"`
	Change    quartiles `json:"change"`
	DeltaPct  float64   `json:"delta_pct"` // change median against base median
	Wins      int       `json:"wins"`      // pairs the change read better in
	Losses    int       `json:"losses"`    // pairs it read worse in; ties count for neither
	Claimable bool      `json:"claimable"` // medians further apart than the base's quartile spread
	BaseRuns  []float64 `json:"base_runs"`
	Runs      []float64 `json:"change_runs"`
}

// workloadReport is one workload's rows, plus what each side's runs
// printed as their flow digests (one, if behaviour is unchanged across
// runs) and the most operations one run failed.
type workloadReport struct {
	BaseDigests   []string               `json:"base_digests"`
	ChangeDigests []string               `json:"change_digests"`
	BaseFailed    int                    `json:"base_failed"`
	ChangeFailed  int                    `json:"change_failed"`
	Metrics       map[string]*comparison `json:"metrics"`
}

// report is the one file benchpair writes.
type report struct {
	Base           string                     `json:"base"`
	BaseRevision   string                     `json:"base_revision"`
	ChangeRevision string                     `json:"change_revision"`
	Seed           int64                      `json:"seed"`
	Pairs          int                        `json:"pairs"`
	CPUs           int                        `json:"cpus"`
	Workloads      map[string]*workloadReport `json:"workloads"`
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
			for w, ws := range sum.Workloads {
				r := got[side][w]
				if r == nil {
					r = &runs{metrics: map[string][]float64{}}
					got[side][w] = r
				}
				if !slices.Contains(r.digests, ws.Digest) {
					r.digests = append(r.digests, ws.Digest)
				}
				r.failed = max(r.failed, ws.Failed)
				for _, m := range metrics {
					r.metrics[m.Name] = append(r.metrics[m.Name], ws.Metrics[m.Name])
				}
			}
		}
	}

	rep := report{Base: *base, BaseRevision: baseRev, ChangeRevision: changeRev, Seed: *seed, Pairs: *pairs,
		CPUs: runtime.NumCPU(), Workloads: map[string]*workloadReport{}}
	for w, ch := range got[1] {
		b := got[0][w]
		if b == nil {
			return fmt.Errorf("workload %s: the base has no such workload", w)
		}
		wr := &workloadReport{BaseDigests: b.digests, ChangeDigests: ch.digests, BaseFailed: b.failed,
			ChangeFailed: ch.failed, Metrics: map[string]*comparison{}}
		for _, m := range metrics {
			wr.Metrics[m.Name] = compare(m.Better, b.metrics[m.Name], ch.metrics[m.Name])
		}
		rep.Workloads[w] = wr
	}
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

// compare summarizes one metric's pairs: base[i] and change[i] ran as
// pair i.
func compare(better string, base, change []float64) *comparison {
	c := &comparison{Better: better, Base: summarize(base), Change: summarize(change), BaseRuns: base, Runs: change}
	sign := 1.0 // > 0 when the change reads better
	if better == "lower" {
		sign = -1
	}
	for i := range min(len(base), len(change)) {
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
	c.Claimable = math.Abs(c.Change.Median-c.Base.Median) > c.Base.Q3-c.Base.Q1
	return c
}

func summarize(vs []float64) quartiles {
	s := slices.Clone(vs)
	slices.Sort(s)
	return quartiles{quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75)}
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
