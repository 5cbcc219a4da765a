package chaos

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"flexpass/internal/faults"
	"flexpass/internal/harness"
	"flexpass/internal/netem"
	"flexpass/internal/sim"
	"flexpass/internal/topo"
	"flexpass/internal/units"
)

func testSpec() *Spec {
	s, err := ParseSpec([]byte(`{
		"name": "unit",
		"trials": 6,
		"seed": 42,
		"topologies": ["tiny"],
		"shards": [0, 2],
		"load_min": 0.2,
		"load_max": 0.6,
		"duration_ms": 0.3,
		"drain_ms": 1.5,
		"faults": {"max_events": 3}
	}`))
	if err != nil {
		panic(err)
	}
	return s
}

// pinnedTrialDigest freezes the generator. Any change to the sampling
// order, the axis defaults, or the port-pool enumeration shows up here
// as a digest diff — deliberate changes update the constant, the same
// way the engine's golden digests pin the event loop.
const pinnedTrialDigest = "014339859bba6878"

func TestGenerateDeterministicAndPinned(t *testing.T) {
	a, err := Generate(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (spec, seed) generated different trials")
	}
	if got := Digest(a); got != pinnedTrialDigest {
		t.Errorf("trial digest = %s, want pinned %s (update the constant only for deliberate generator changes)",
			got, pinnedTrialDigest)
	}
	// A different seed must actually change the sample.
	s2 := testSpec()
	s2.Seed = 43
	c, err := Generate(s2)
	if err != nil {
		t.Fatal(err)
	}
	if Digest(c) == pinnedTrialDigest {
		t.Error("seed 43 produced the seed-42 trial list")
	}
}

// TestGeneratedPlansAreValid: every sampled event names a real port of
// the trial's topology, sits inside the spec's fault window, and never
// overlaps another event of the same (link, kind).
func TestGeneratedPlansAreValid(t *testing.T) {
	s := testSpec()
	s.Trials = 20
	trials, err := Generate(s)
	if err != nil {
		t.Fatal(err)
	}
	winLo, winHi := s.windowPS()
	for _, tr := range trials {
		pool, err := portPool(tr.Topo)
		if err != nil {
			t.Fatal(err)
		}
		known := map[string]bool{}
		for _, p := range pool {
			known[p] = true
		}
		if tr.Plan == nil || len(tr.Plan.Events) == 0 {
			t.Fatalf("trial %d sampled an empty plan", tr.Index)
		}
		if err := tr.Plan.Validate(); err != nil {
			t.Fatalf("trial %d plan invalid: %v", tr.Index, err)
		}
		type slot struct{ at, end int64 }
		seen := map[string][]slot{}
		for _, ev := range tr.Plan.Events {
			if !known[ev.Link] {
				t.Fatalf("trial %d targets unknown port %q", tr.Index, ev.Link)
			}
			at, end := int64(ev.At), int64(ev.End)
			if at < winLo || end > winHi || end <= at {
				t.Fatalf("trial %d event window [%d, %d] outside spec window [%d, %d]",
					tr.Index, at, end, winLo, winHi)
			}
			key := ev.Link + "|" + string(ev.Kind)
			for _, sl := range seen[key] {
				if at < sl.end && sl.at < end {
					t.Fatalf("trial %d: overlapping %s events on %s", tr.Index, ev.Kind, ev.Link)
				}
			}
			seen[key] = append(seen[key], slot{at, end})
		}
	}
}

// TestTestbedTopologies: a spec may sample the testbed fabrics, and each
// trial's faults name ports of the fabric its scenario builds.
func TestTestbedTopologies(t *testing.T) {
	s, err := ParseSpec([]byte(`{"name": "testbed", "trials": 8, "seed": 3, "topologies": ["single3", "dumbbell2"]}`))
	if err != nil {
		t.Fatal(err)
	}
	trials, err := Generate(s)
	if err != nil {
		t.Fatal(err)
	}
	sampled := map[string]bool{}
	for _, tr := range trials {
		sampled[tr.Topo] = true
		sc := tr.Coords.Scenario(s.Oracles)
		fab := sc.Clos.Build([]*sim.Engine{sim.NewEngine(1)}, topo.Params{
			LinkRate: sc.LinkRate, LinkDelay: sc.LinkDelay, HostDelay: sc.HostDelay,
			SwitchBuf: sc.SwitchBuf, BufAlpha: sc.BufAlpha, Profile: topo.PlainProfile(80 * units.KB),
		})
		ports := map[string]bool{}
		fab.Net.EachPort(func(p *netem.Port) { ports[p.Name()] = true })
		for _, ev := range tr.Plan.Events {
			if !ports[ev.Link] {
				t.Errorf("trial %d on %s (%s) faults %q, not a port of it", tr.Index, tr.Topo, sc.Clos, ev.Link)
			}
		}
		if sc.LinkRate != 10*units.Gbps {
			t.Errorf("trial %d on %s runs at %v, not the testbed's 10 GbE", tr.Index, tr.Topo, sc.LinkRate)
		}
	}
	if !sampled["single3"] || !sampled["dumbbell2"] {
		t.Errorf("8 trials sampled only %v", sampled)
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []string{
		`{"trials": 1}`, // no name
		`{"name": "x"}`, // no trials
		`{"name": "x", "trials": 1, "schemes": ["no-such-scheme"]}`, // unknown scheme
		`{"name": "x", "trials": 1, "topologies": ["mega"]}`,        // unknown topology
		`{"name": "x", "trials": 1, "workloads": ["nope"]}`,         // unknown workload
		`{"name": "x", "trials": 1, "shards": [-1]}`,                // negative shards
		`{"name": "x", "trials": 1, "load_min": 0.9, "load_max": 0.1}`,
		`{"name": "x", "trials": 1, "faults": {"kinds": ["link-up"]}}`, // recovery kinds are not samplable
		`{"name": "x", "trials": 1, "faults": {"links": ["[bad"]}}`,    // malformed glob
		`{"name": "x", "trials": 1, "typo_knob": 3}`,                   // unknown field
		`{"name": "x", "trials": 1} {"name": "second"} trailing`,       // more than one document
		`{"name": "x", "trials": 1}}`,
	}
	for _, in := range bad {
		if _, err := ParseSpec([]byte(in)); err == nil {
			t.Errorf("spec %s parsed; want error", in)
		}
	}
	if _, err := ParseSpec([]byte(`{"name": "ok", "trials": 2}`)); err != nil {
		t.Errorf("minimal valid spec rejected: %v", err)
	}
}

// TestDrainRule: a chaos spec's drain_ms follows the sweep rule —
// omitted is 5x the duration, an explicit 0 is no drain.
func TestDrainRule(t *testing.T) {
	for in, want := range map[string]float64{
		`{"name": "d", "trials": 2, "duration_ms": 0.4}`:                  2,
		`{"name": "d", "trials": 2, "duration_ms": 0.4, "drain_ms": 0}`:   0,
		`{"name": "d", "trials": 2, "duration_ms": 0.4, "drain_ms": 1.5}`: 1.5,
	} {
		s, err := ParseSpec([]byte(in))
		if err != nil {
			t.Fatal(err)
		}
		trials, err := Generate(s)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range trials {
			if tr.DrainMS != want {
				t.Errorf("%s: trial %d drains %g ms, want %g", in, tr.Index, tr.DrainMS, want)
			}
		}
	}
}

// TestForensicsOnOnePlane: the auditors are on whenever the trial runs
// on one plane — a testbed layout at any shard count, a Clos at shards
// 0 or 1 — and off only where the fabric is really cut.
func TestForensicsOnOnePlane(t *testing.T) {
	for _, c := range []struct {
		topo   string
		shards int
		want   bool
	}{
		{"single3", 2, true}, {"dumbbell2", 4, true},
		{"tiny", 0, true}, {"tiny", 1, true}, {"tiny", 2, false},
	} {
		co := Coords{Scheme: "flexpass", Topo: c.topo, Shards: c.shards, Workload: "websearch",
			Load: 0.5, Deployment: 0.5, Seed: 1, DurationMS: 0.3, DrainMS: 1}
		if got := co.Scenario(OracleSpec{}).Forensics != nil; got != c.want {
			t.Errorf("%s at shards %d: forensics %v, want %v", c.topo, c.shards, got, c.want)
		}
	}
}

// TestLinksGlobFiltersPool: a links glob restricts sampling to matching
// ports, and a glob matching nothing is an error, not an empty soak.
func TestLinksGlobFiltersPool(t *testing.T) {
	s := testSpec()
	s.Faults.Links = []string{"tor*"}
	trials, err := Generate(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trials {
		for _, ev := range tr.Plan.Events {
			if !strings.HasPrefix(ev.Link, "tor") {
				t.Fatalf("glob tor* sampled port %q", ev.Link)
			}
		}
	}
	s.Faults.Links = []string{"nonexistent*"}
	if _, err := Generate(s); err == nil {
		t.Fatal("glob matching no port generated trials; want error")
	}
}

func TestIsReproAndParseRepro(t *testing.T) {
	plan := []byte(`{"name": "bare", "events": [{"kind": "link-down", "link": "x", "at": "1ms", "end": "2ms"}]}`)
	if IsRepro(plan) {
		t.Error("bare fault plan detected as a repro")
	}
	r := &Repro{
		Chaos: ReproSchema,
		Coords: Coords{
			Scheme: "flexpass", Topo: "tiny", Workload: "websearch",
			Load: 0.5, Seed: 7, DurationMS: 0.5, DrainMS: 2,
		},
		Outcome: OutcomeIncomplete,
	}
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if !IsRepro(data) {
		t.Error("marshaled repro not detected by IsRepro")
	}
	back, err := ParseRepro(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, r) {
		t.Errorf("repro round trip changed the document:\n got %+v\nwant %+v", back, r)
	}
	if _, err := ParseRepro(plan); err == nil {
		t.Error("ParseRepro accepted a bare fault plan")
	}
	if _, err := ParseRepro([]byte(`{"chaos": 99}`)); err == nil {
		t.Error("ParseRepro accepted a future schema version")
	}
	if _, err := ParseRepro([]byte(`{"chaos": 1, "mystery": true}`)); err == nil {
		t.Error("ParseRepro accepted an unknown field")
	}
	// Coordinates are outside input: a name no registry knows is a parse
	// error, not a panic when the scenario is built.
	for _, bad := range []Coords{
		{Scheme: "no-such-scheme", Topo: "tiny", Workload: "websearch"},
		{Scheme: "flexpass", Topo: "mega", Workload: "websearch"},
		{Scheme: "flexpass", Topo: "tiny", Workload: "nope"},
	} {
		doc, _ := json.Marshal(&Repro{Chaos: ReproSchema, Coords: bad})
		if _, err := ParseRepro(doc); err == nil {
			t.Errorf("ParseRepro accepted coordinates %+v", bad)
		}
	}
	for _, tail := range []string{` {"chaos": 1}`, ` trailing`, `}`} {
		if _, err := ParseRepro([]byte(string(data) + tail)); err == nil {
			t.Errorf("ParseRepro accepted trailing data %q", tail)
		}
	}

	// WriteFile/ParseReproFile round trip.
	p := filepath.Join(t.TempDir(), "repro.json")
	if err := r.WriteFile(p); err != nil {
		t.Fatal(err)
	}
	onDisk, err := ParseReproFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, r) {
		t.Error("on-disk repro round trip changed the document")
	}
}

// TestSoakDeterministic: the same (spec, seed) soaks to the same
// verdict on every trial — the property that makes a chaos CI job as
// reproducible as a unit test.
func TestSoakDeterministic(t *testing.T) {
	s := testSpec()
	trials, err := Generate(s)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	rep1, err := Soak(s, trials, SoakOptions{Workers: 2, OutDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := Soak(s, trials, SoakOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Passed+rep1.Failed != len(trials) {
		t.Fatalf("soak lost trials: passed=%d failed=%d of %d", rep1.Passed, rep1.Failed, len(trials))
	}
	for i := range rep1.Results {
		v1, v2 := rep1.Results[i].Verdict, rep2.Results[i].Verdict
		if !reflect.DeepEqual(v1, v2) {
			t.Errorf("trial %d verdicts diverge across soaks:\n  %+v\n  %+v", i, v1, v2)
		}
	}
	// The trial log carries one record per trial, in order.
	data, err := os.ReadFile(filepath.Join(dir, "trials.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != len(trials) {
		t.Fatalf("trials.jsonl has %d records, want %d", len(lines), len(trials))
	}
	var first TrialResult
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first.Trial.Index != 0 || first.Verdict.Outcome == "" {
		t.Errorf("trial log record 0 malformed: %+v", first)
	}
}

// TestShardTwins is the metamorphic check that the shard count is
// invisible: the first 12 trials of the CI smoke spec, regenerated at
// shards 2, give the flow records and drop counts of their shards-1 twin.
func TestShardTwins(t *testing.T) {
	s, err := ParseSpecFile("../../ci/chaos-smoke.json")
	if err != nil {
		t.Fatal(err)
	}
	s.Trials = 12
	trials, err := Generate(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trials {
		run := func(shards int) *harness.Result {
			c := tr.Coords
			c.Shards = shards
			sc := c.Scenario(s.Oracles)
			sc.FaultPlan = tr.Plan
			return harness.Run(sc)
		}
		one, two := run(1), run(2)
		for i, r := range one.Flows.Records {
			if i >= len(two.Flows.Records) || two.Flows.Records[i] != r {
				t.Fatalf("trial %d: flow %d differs at shards 2", tr.Index, r.ID)
			}
		}
		drops := func(r *harness.Result) [4]int64 {
			return [4]int64{r.DropsRed, r.DropsCredit, r.DropsOther, r.FaultDrops.Injected}
		}
		if len(two.Flows.Records) != len(one.Flows.Records) || drops(one) != drops(two) {
			t.Fatalf("trial %d: %d flows, drops %v at shards 1; %d flows, drops %v at shards 2",
				tr.Index, len(one.Flows.Records), drops(one), len(two.Flows.Records), drops(two))
		}
	}
}

// brokenLinkRepro hand-builds a deterministic failure: the downlink to
// host 0 is dead for the entire run, so the pinned flow into host 0
// can never complete while the flow into host 1 finishes normally.
func brokenLinkRepro(t *testing.T) *Repro {
	t.Helper()
	const fullPS = int64(2.5 * float64(sim.Millisecond)) // duration + drain
	pool, err := portPool("tiny")
	if err != nil {
		t.Fatal(err)
	}
	const downlink = "tor0.0->h0.0.0"
	found := false
	for _, p := range pool {
		if p == downlink {
			found = true
		}
	}
	if !found {
		t.Fatalf("port %q not in the tiny pool %v (naming scheme changed?)", downlink, pool)
	}
	return &Repro{
		Chaos:   ReproSchema,
		Spec:    "unit",
		Outcome: OutcomeIncomplete,
		Coords: Coords{
			Scheme: "flexpass", Topo: "tiny", Workload: "websearch",
			Load: 0.3, Deployment: 0.5, Seed: 7,
			DurationMS: 0.5, DrainMS: 2,
		},
		Plan: &faults.Plan{
			Name: "broken-downlink",
			Events: []faults.Event{{
				Kind: faults.LinkDown, Link: downlink,
				At: faults.TimeSpec(0), End: faults.TimeSpec(fullPS),
			}},
		},
		Flows: []ReproFlow{
			{Src: 3, Dst: 0, Size: 40000, AtPs: 0},                      // into the dead link: never completes
			{Src: 2, Dst: 1, Size: 40000, AtPs: int64(sim.Microsecond)}, // healthy path: completes
		},
	}
}

// TestReplayReproducesFailure: the hand-built repro replays to its
// recorded failure class, and the healthy variant (no plan) passes —
// the oracles, not the scenario, are what fail it.
func TestReplayReproducesFailure(t *testing.T) {
	r := brokenLinkRepro(t)
	v := r.Replay(0, 0)
	if v.Outcome != OutcomeIncomplete {
		t.Fatalf("replay outcome %s (%s), want incomplete", v.Outcome, v.Detail)
	}
	if v.Incomplete != 1 {
		t.Errorf("replay counts %d incomplete flows, want exactly the dead-link flow", v.Incomplete)
	}
	healthy := *r
	healthy.Plan = nil
	if hv := healthy.Replay(0, 0); hv.Failed() {
		t.Fatalf("repro without its fault plan still fails (%s: %s) — the failure is not fault-seeded", hv.Outcome, hv.Detail)
	}
}

// TestShrinkMinimizesRepro: the shrinker takes the two-flow, one-event
// repro down to its 1-minimal core — one event, one flow — and the
// shrunk document still replays to the same failure class.
func TestShrinkMinimizesRepro(t *testing.T) {
	r := brokenLinkRepro(t)
	res, err := Shrink(r, ShrinkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.EventsAfter != 1 || res.FlowsAfter != 1 {
		t.Fatalf("shrunk to %d events / %d flows, want 1/1", res.EventsAfter, res.FlowsAfter)
	}
	if res.FlowsBefore != 2 {
		t.Errorf("shrinker saw %d flows before, want 2", res.FlowsBefore)
	}
	min := res.Repro
	if !min.Shrunk || min.Probes != res.Probes || res.Probes < 2 {
		t.Errorf("shrunk repro metadata wrong: shrunk=%v probes=%d/%d", min.Shrunk, min.Probes, res.Probes)
	}
	if min.Flows[0].Dst != 0 {
		t.Errorf("shrinker kept the wrong flow: %+v", min.Flows[0])
	}
	if v := min.Replay(0, 0); v.Outcome != OutcomeIncomplete {
		t.Fatalf("shrunk repro replays as %s, want incomplete", v.Outcome)
	}
	// Replays are deterministic: two replays of the shrunk repro agree.
	if v1, v2 := min.Replay(0, 0), min.Replay(0, 0); !reflect.DeepEqual(v1, v2) {
		t.Errorf("shrunk repro replays diverge: %+v vs %+v", v1, v2)
	}
}

// TestShrinkRefusesPassingRepro: shrinking needs a reproducing failure.
func TestShrinkRefusesPassingRepro(t *testing.T) {
	r := brokenLinkRepro(t)
	r.Plan = nil // passes without the plan
	if _, err := Shrink(r, ShrinkOptions{}); err == nil {
		t.Fatal("Shrink accepted a repro that passes under replay")
	}
}

// TestShrinkRefusesMorphedFailure: a repro recording one failure class
// must not be shrunk against a different one.
func TestShrinkRefusesMorphedFailure(t *testing.T) {
	r := brokenLinkRepro(t)
	r.Outcome = OutcomeViolation // recorded class disagrees with what replays
	if _, err := Shrink(r, ShrinkOptions{}); err == nil {
		t.Fatal("Shrink accepted a repro whose replay morphs the failure class")
	}
}

// TestSoakWritesReproForFailure: a failing trial lands a parseable
// repro document whose coordinates match the trial.
func TestSoakWritesReproForFailure(t *testing.T) {
	s := testSpec()
	s.Trials = 1
	s.Shards = []int{0}
	trials, err := Generate(s)
	if err != nil {
		t.Fatal(err)
	}
	src := brokenLinkRepro(t)
	dir := t.TempDir()
	rep, err := Soak(s, trials, SoakOptions{
		Workers: 1,
		OutDir:  dir,
		// Force a deterministic failure through the seam: replace the
		// sampled plan and flows with the known dead-downlink scenario.
		Mutate: func(sc *harness.Scenario) {
			sc.FaultPlan = src.Plan
			sc.TraceFlows = fromReproFlows(src.Flows)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 1 {
		t.Fatalf("failed=%d, want 1 (by outcome: %v)", rep.Failed, rep.ByOutcome)
	}
	tr := rep.Results[0]
	if tr.Verdict.Outcome != OutcomeIncomplete {
		t.Fatalf("trial outcome %s, want incomplete", tr.Verdict.Outcome)
	}
	if tr.ReproPath == "" {
		t.Fatal("failing trial recorded no repro path")
	}
	got, err := ParseReproFile(tr.ReproPath)
	if err != nil {
		t.Fatal(err)
	}
	if got.Coords != trials[0].Coords || got.Outcome != OutcomeIncomplete {
		t.Errorf("repro document does not match the failing trial: %+v", got)
	}
	if len(got.Flows) == 0 {
		t.Error("repro did not pin the flow list")
	}
}
