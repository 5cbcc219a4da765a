package workload

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"flexpass/internal/planspec"
	"flexpass/internal/sim"
	"flexpass/internal/units"
)

// testEnv is a mid-size scenario context: enough hosts and horizon for
// calibration statistics, small enough to keep the tests fast.
func testEnv() Env {
	return Env{
		Hosts:          48,
		UplinkCapacity: 320 * units.Gbps,
		Load:           0.5,
		Duration:       50 * sim.Millisecond,
	}
}

func mustGenerate(t *testing.T, p *Plan, env Env, seed int64) []FlowSpec {
	t.Helper()
	flows, err := p.Generate(env, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return flows
}

func TestParsePlanRejectsBadInput(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"unknown top-level field", `{"sources":[],"extra":1}`},
		{"unknown source field", `{"sources":[{"kind":"poisson","cdf":"websearch","typo":1}]}`},
		{"trailing data", `{"sources":[{"kind":"poisson","cdf":"websearch"}]} {}`},
		{"trailing closer", `{"sources":[{"kind":"poisson","cdf":"websearch"}]}}`},
		{"not json", `sources: poisson`},
		{"empty sources", `{"sources":[]}`},
		{"bad duration string", `{"sources":[{"kind":"onoff","cdf":"hadoop","on":"200 parsecs","off":"1ms"}]}`},
	}
	for _, c := range cases {
		if _, err := ParsePlan([]byte(c.in)); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestValidateReportsSourceAndField(t *testing.T) {
	cases := []struct {
		name  string
		plan  Plan
		field string
	}{
		{"unknown kind", Plan{Sources: []Source{{Kind: "fractal"}}}, "kind"},
		{"missing cdf", Plan{Sources: []Source{{Kind: SrcPoisson}}}, "cdf"},
		{"unknown cdf", Plan{Sources: []Source{{Kind: SrcPoisson, CDF: "nope"}}}, "cdf"},
		{"background rate", Plan{Sources: []Source{{Kind: SrcPoisson, CDF: "websearch", Rate: 100}}}, "rate"},
		{"onoff no periods", Plan{Sources: []Source{{Kind: SrcOnOff, CDF: "hadoop"}}}, "on"},
		{"negative sigma", Plan{Sources: []Source{{Kind: SrcLognormal, CDF: "websearch", Sigma: -1}}}, "sigma"},
		{"incast no size", Plan{Sources: []Source{{Kind: SrcIncast, Fraction: 0.1}}}, "flow_size"},
		{"incast no rate", Plan{Sources: []Source{{Kind: SrcIncast, FlowSize: 8000}}}, "fraction"},
		{"rpc no fanout", Plan{Sources: []Source{{Kind: SrcRPC, RequestSize: 100, ResponseSize: 100, Rate: 1}}}, "fanout"},
		{"rpc no response", Plan{Sources: []Source{{Kind: SrcRPC, Fanout: 2, RequestSize: 100, Rate: 1}}}, "response_size"},
		{"rpc no rate", Plan{Sources: []Source{{Kind: SrcRPC, Fanout: 2, RequestSize: 100, ResponseSize: 100}}}, "rate"},
		{"trace no path", Plan{Sources: []Source{{Kind: SrcTrace}}}, "path"},
		{"trace modulated", Plan{Sources: []Source{{Kind: SrcTrace, Path: "x.csv",
			Modulate: []Modulator{{Kind: ModDiurnal, Period: planspec.TimeSpec(sim.Millisecond)}}}}}, "modulate"},
		{"bad modulator", Plan{Sources: []Source{{Kind: SrcPoisson, CDF: "websearch",
			Modulate: []Modulator{{Kind: "square"}}}}}, "modulate[0]"},
		{"flash window", Plan{Sources: []Source{{Kind: SrcPoisson, CDF: "websearch",
			Modulate: []Modulator{{Kind: ModFlash, Peak: 2, At: planspec.TimeSpec(2 * sim.Millisecond),
				End: planspec.TimeSpec(sim.Millisecond)}}}}}, "modulate[0]"},
	}
	for _, c := range cases {
		err := c.plan.Validate()
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		var pe *PlanError
		if !errors.As(err, &pe) {
			t.Errorf("%s: error %v is not a *PlanError", c.name, err)
			continue
		}
		if pe.Field != c.field {
			t.Errorf("%s: error on field %q, want %q (%v)", c.name, pe.Field, c.field, err)
		}
	}
}

func TestPlanHashIgnoresName(t *testing.T) {
	a := &Plan{Name: "alpha", Sources: []Source{{Kind: SrcPoisson, CDF: "websearch", Load: 0.3}}}
	b := &Plan{Name: "omega", Sources: []Source{{Kind: SrcPoisson, CDF: "websearch", Load: 0.3}}}
	if a.Hash() == "" || a.Hash() != b.Hash() {
		t.Fatalf("renaming changed the hash: %q vs %q", a.Hash(), b.Hash())
	}
	c := &Plan{Name: "alpha", Sources: []Source{{Kind: SrcPoisson, CDF: "websearch", Load: 0.31}}}
	if a.Hash() == c.Hash() {
		t.Fatalf("changing a source did not change the hash (%q)", a.Hash())
	}
	var nilPlan *Plan
	if nilPlan.Hash() != "" || (&Plan{}).Hash() != "" {
		t.Fatal("nil/empty plan should hash to empty string")
	}
}

func TestPlanHashSurvivesTraceRename(t *testing.T) {
	dir := t.TempDir()
	trace := "at_us,src,dst,size_bytes,incast\n1.0,0,1,1000,0\n2.0,1,2,2000,0\n"
	for _, name := range []string{"first.csv", "second.csv"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(trace), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	hashes := make([]string, 0, 2)
	for _, name := range []string{"first.csv", "second.csv"} {
		planPath := filepath.Join(dir, name+".plan.json")
		planJSON := `{"sources":[{"kind":"trace","path":"` + name + `"}]}`
		if err := os.WriteFile(planPath, []byte(planJSON), 0o644); err != nil {
			t.Fatal(err)
		}
		p, err := ParsePlanFile(planPath)
		if err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, p.Hash())
	}
	if hashes[0] == "" || hashes[0] != hashes[1] {
		t.Fatalf("trace identity should follow content, not path: %q vs %q", hashes[0], hashes[1])
	}
}

func TestTraceSourceReplaysVerbatim(t *testing.T) {
	dir := t.TempDir()
	orig := mustGenerate(t, LegacyPlan(WebSearch, 0),
		Env{Hosts: 16, UplinkCapacity: 80 * units.Gbps, Load: 0.4, Duration: 2 * sim.Millisecond}, 3)
	var b strings.Builder
	if err := WriteTrace(&b, orig); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "t.csv"), []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	planPath := filepath.Join(dir, "replay.json")
	if err := os.WriteFile(planPath, []byte(`{"sources":[{"kind":"trace","path":"t.csv","tenant":"replayed"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := ParsePlanFile(planPath)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "replay" {
		t.Fatalf("plan name should default to the file stem, got %q", p.Name)
	}
	flows := mustGenerate(t, p, testEnv(), 1)
	if len(flows) != len(orig) {
		t.Fatalf("replay produced %d flows, trace has %d", len(flows), len(orig))
	}
	for i := range flows {
		if flows[i].Src != orig[i].Src || flows[i].Dst != orig[i].Dst || flows[i].Size != orig[i].Size {
			t.Fatalf("flow %d differs from trace: %+v vs %+v", i, flows[i], orig[i])
		}
		if flows[i].Tenant != "replayed" {
			t.Fatalf("flow %d missing tenant tag", i)
		}
	}
}

// Unresolved trace sources must fail generation, not silently produce
// nothing: ParsePlan alone never reads the trace file.
func TestUnresolvedTraceFailsGeneration(t *testing.T) {
	p, err := ParsePlan([]byte(`{"sources":[{"kind":"trace","path":"missing.csv"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Generate(testEnv(), rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("expected an unresolved-trace error")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	plans := []string{
		`{"sources":[
			{"kind":"poisson","tenant":"bg","cdf":"websearch","load":0.3},
			{"kind":"onoff","cdf":"hadoop","load":0.1,"on":"200us","off":"400us"},
			{"kind":"lognormal","cdf":"cachefollower","load":0.1,"sigma":1.2},
			{"kind":"incast","fraction":0.1,"flow_size":8000,"coflow":true},
			{"kind":"rpc","tenant":"rpc","fanout":4,"request_size":2000,"response_size":20000,"load":0.05}
		]}`,
		`{"sources":[
			{"kind":"poisson","cdf":"websearch","load":0.4,
			 "modulate":[{"kind":"flash","at":"10ms","end":"30ms","peak":2.5,"ramp":"2ms"}]},
			{"kind":"poisson","cdf":"datamining","load":0.2,
			 "modulate":[{"kind":"diurnal","period":"20ms","min":0.2},{"kind":"ramp","from":0.5,"to":1.5}]}
		]}`,
	}
	env := testEnv()
	for i, js := range plans {
		p, err := ParsePlan([]byte(js))
		if err != nil {
			t.Fatalf("plan %d: %v", i, err)
		}
		a := mustGenerate(t, p, env, 42)
		b := mustGenerate(t, p, env, 42)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("plan %d: same (plan, seed, env) produced different flows", i)
		}
		c := mustGenerate(t, p, env, 43)
		if reflect.DeepEqual(a, c) {
			t.Fatalf("plan %d: different seeds produced identical flows (%d flows)", i, len(a))
		}
		if len(a) == 0 {
			t.Fatalf("plan %d generated no flows", i)
		}
		for j := 1; j < len(a); j++ {
			if a[j].At < a[j-1].At {
				t.Fatalf("plan %d: flows not time-sorted at %d", i, j)
			}
		}
	}
}

// A neutral modulator (ramp 1→1) must not change what is generated:
// max(envelope)=1 leaves the base rate alone and every acceptance draw
// keeps its flow, so the output matches the unmodulated source.
func TestNeutralModulatorIsIdentity(t *testing.T) {
	plain, err := ParsePlan([]byte(`{"sources":[{"kind":"poisson","cdf":"websearch","load":0.3}]}`))
	if err != nil {
		t.Fatal(err)
	}
	neutral, err := ParsePlan([]byte(`{"sources":[{"kind":"poisson","cdf":"websearch","load":0.3,
		"modulate":[{"kind":"ramp","from":1,"to":1}]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	env := testEnv()
	a := mustGenerate(t, plain, env, 7)
	b := mustGenerate(t, neutral, env, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("neutral modulator changed the output: %d vs %d flows", len(a), len(b))
	}
}

// calibrationEnv is testEnv with racks of 8 hosts: 40/47 of the pairs
// cross a rack, so a background's rate carries the rack correction.
func calibrationEnv() Env {
	env := testEnv()
	env.RackOf = make([]int, env.Hosts)
	for i := range env.RackOf {
		env.RackOf[i] = i / 8
	}
	return env
}

// calibrationCase is a one-source plan, the uplink bytes one of its
// arrival units offers, the uplink bytes/s its rate must carry, how to
// count its arrival units (nil counts flows), and the tolerance on that
// count.
type calibrationCase struct {
	name      string
	js        string
	unitBytes float64
	wantBps   float64
	units     func([]FlowSpec) int
	tol       float64
}

// countEvents counts distinct (At, Coflow) groups: incast events or rpc jobs.
func countEvents(flows []FlowSpec) int {
	n := 0
	for i, f := range flows {
		if i == 0 || f.At != flows[i-1].At || f.Coflow != flows[i-1].Coflow {
			n++
		}
	}
	return n
}

// checkCalibration holds each case's rate to its target volume (and to
// scale with the boost), its pairs to valid distinct hosts, and its
// realised arrival units to rate × horizon. Seeds are fixed, so these
// are deterministic checks of calibration, not flaky statistical tests.
// It returns each case's flows.
func checkCalibration(t *testing.T, env Env, cases []calibrationCase) [][]FlowSpec {
	t.Helper()
	var all [][]FlowSpec
	for _, c := range cases {
		p, err := ParsePlan([]byte(`{"sources":[` + c.js + `]}`))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		s := &p.Sources[0]
		rate := s.rate(env, 1)
		if got := rate * c.unitBytes; math.Abs(got/c.wantBps-1) > 1e-9 {
			t.Errorf("%s: rate %.6g offers %.6g B/s, want %.6g", c.name, rate, got, c.wantBps)
		}
		if got := s.rate(env, 2); math.Abs(got/(2*rate)-1) > 1e-12 {
			t.Errorf("%s: boost 2 gives rate %.6g, want %.6g", c.name, got, 2*rate)
		}
		flows := mustGenerate(t, p, env, 11)
		for _, f := range flows {
			if f.Src == f.Dst || f.Src < 0 || f.Src >= env.Hosts || f.Dst < 0 || f.Dst >= env.Hosts {
				t.Fatalf("%s: bad pair %d->%d", c.name, f.Src, f.Dst)
			}
		}
		got := float64(len(flows))
		if c.units != nil {
			got = float64(c.units(flows))
		}
		if want := rate * env.Duration.Seconds(); got < want*(1-c.tol) || got > want*(1+c.tol) {
			t.Errorf("%s: %.0f arrival units, want %.0f ± %.0f%%", c.name, got, want, c.tol*100)
		}
		all = append(all, flows)
	}
	return all
}

// TestBackgroundCalibration: each background kind's rate offers its
// load of the uplinks, net of the pairs that stay in one rack, and
// realises rate × horizon flows.
func TestBackgroundCalibration(t *testing.T) {
	env := calibrationEnv()
	capBytes := float64(env.UplinkCapacity) / 8
	const cross = 40.0 / 47
	checkCalibration(t, env, []calibrationCase{
		{"poisson", `{"kind":"poisson","cdf":"websearch","load":0.5}`,
			WebSearch.Mean() * cross, 0.5 * capBytes, nil, 0.10},
		{"onoff", `{"kind":"onoff","cdf":"websearch","load":0.5,"on":"200us","off":"400us"}`,
			WebSearch.Mean() * cross, 0.5 * capBytes, nil, 0.25},
		{"lognormal", `{"kind":"lognormal","cdf":"hadoop","load":0.3,"sigma":1.0}`,
			Hadoop.Mean() * cross, 0.3 * capBytes, nil, 0.25},
	})
}

// TestIncastFractionCalibration: an incast with a volume fraction
// carries that fraction of the total over the scenario's nominal
// background (fg = bg/9 at 10 %), realises rate × horizon events, and
// emits only incast flows.
func TestIncastFractionCalibration(t *testing.T) {
	env := calibrationEnv()
	flows := checkCalibration(t, env, []calibrationCase{
		{"incast", `{"kind":"incast","fraction":0.1,"flow_size":8000}`,
			47 * 4 * 8000, env.Load * float64(env.UplinkCapacity) / 8 / 9, countEvents, 0.25},
	})
	for _, f := range flows[0] {
		if !f.Incast {
			t.Fatal("incast source emitted a non-incast flow")
		}
	}
}

// TestSourceCalibration: an rpc's rate carries its load of the uplinks
// and realises rate × horizon jobs, and an explicit rate wins over the
// calibration, for incast and rpc.
func TestSourceCalibration(t *testing.T) {
	env := calibrationEnv()
	checkCalibration(t, env, []calibrationCase{
		{"rpc", `{"kind":"rpc","fanout":4,"request_size":2000,"response_size":20000,"load":0.05}`,
			4 * (2000 + 20000), 0.05 * float64(env.UplinkCapacity) / 8, countEvents, 0.10},
	})
	for _, s := range []Source{
		{Kind: SrcIncast, Rate: 700, Fraction: 0.1, FlowSize: 8000},
		{Kind: SrcRPC, Rate: 700, Load: 0.2, Fanout: 4, RequestSize: 2000, ResponseSize: 20000},
	} {
		if got := s.rate(env, 1.5); got != 700*1.5 {
			t.Errorf("%s: explicit rate 700 at boost 1.5 gives %g", s.Kind, got)
		}
	}
}

func TestRPCCoflowStructure(t *testing.T) {
	const fanout = 4
	p, err := ParsePlan([]byte(`{"sources":[
		{"kind":"incast","fraction":0.05,"flow_size":8000,"coflow":true},
		{"kind":"rpc","fanout":4,"request_size":2000,"response_size":20000,"rate":2000}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	env := testEnv()
	flows := mustGenerate(t, p, env, 21)
	rpc := map[uint64][]FlowSpec{}
	incastCoflows := map[uint64]bool{}
	for _, f := range flows {
		if f.Coflow == 0 {
			t.Fatal("coflow-tagged plan emitted an untagged flow")
		}
		if f.Size == 8000 {
			incastCoflows[f.Coflow] = true
		} else {
			rpc[f.Coflow] = append(rpc[f.Coflow], f)
		}
	}
	if len(rpc) == 0 || len(incastCoflows) == 0 {
		t.Fatalf("expected both rpc and incast coflows (got %d, %d)", len(rpc), len(incastCoflows))
	}
	for id := range rpc {
		if incastCoflows[id] {
			t.Fatalf("coflow ID %d shared between sources", id)
		}
	}
	for id, fs := range rpc {
		if len(fs) != 2*fanout {
			t.Fatalf("rpc coflow %d has %d flows, want %d", id, len(fs), 2*fanout)
		}
		root := -1
		workers := map[int]bool{}
		for _, f := range fs {
			if f.At != fs[0].At {
				t.Fatalf("rpc coflow %d spans multiple arrival instants", id)
			}
			if f.Incast { // response: worker -> root
				if root == -1 {
					root = f.Dst
				} else if f.Dst != root {
					t.Fatalf("rpc coflow %d has responses to multiple roots", id)
				}
				workers[f.Src] = true
			}
		}
		if len(workers) != fanout {
			t.Fatalf("rpc coflow %d has %d distinct workers, want %d", id, len(workers), fanout)
		}
		if workers[root] {
			t.Fatalf("rpc coflow %d root %d is also a worker", id, root)
		}
	}
}

// Thinning a modulated coflow source must keep or drop whole coflows —
// a job that loses half its flows would report a bogus completion time.
func TestGroupedThinningKeepsCoflowsWhole(t *testing.T) {
	p, err := ParsePlan([]byte(`{"sources":[
		{"kind":"rpc","fanout":3,"request_size":2000,"response_size":20000,"rate":3000,
		 "modulate":[{"kind":"diurnal","period":"20ms","min":0.1}]}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	flows := mustGenerate(t, p, testEnv(), 13)
	byCoflow := map[uint64]int{}
	for _, f := range flows {
		byCoflow[f.Coflow]++
	}
	if len(byCoflow) == 0 {
		t.Fatal("thinning dropped every coflow")
	}
	for id, n := range byCoflow {
		if n != 6 {
			t.Fatalf("coflow %d survived thinning with %d of 6 flows", id, n)
		}
	}
}

// A flash crowd should visibly raise the arrival density inside its
// window relative to the baseline outside it.
func TestFlashModulatorShapesDensity(t *testing.T) {
	env := testEnv()
	p, err := ParsePlan([]byte(`{"sources":[{"kind":"poisson","cdf":"websearch","load":0.4,
		"modulate":[{"kind":"flash","at":"15ms","end":"35ms","peak":3,"ramp":"1ms"}]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	flows := mustGenerate(t, p, env, 17)
	var inside, outside int
	at, end := 16*sim.Millisecond, 34*sim.Millisecond // the plateau
	for _, f := range flows {
		if f.At >= at && f.At < end {
			inside++
		} else {
			outside++
		}
	}
	inDur := (end - at).Seconds()
	outDur := env.Duration.Seconds() - (20 * sim.Millisecond).Seconds()
	inRate, outRate := float64(inside)/inDur, float64(outside)/outDur
	if inRate < 2*outRate {
		t.Fatalf("flash plateau rate %.0f/s not clearly above baseline %.0f/s", inRate, outRate)
	}
}

// The shipped example plans must stay parseable — they are documentation
// that executes.
func TestExamplePlansParse(t *testing.T) {
	paths, err := filepath.Glob("../../examples/workloads/*.json")
	if err != nil || len(paths) == 0 {
		t.Skipf("no example plans found: %v", err)
	}
	env := testEnv()
	for _, path := range paths {
		p, err := ParsePlanFile(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if p.Hash() == "" {
			t.Errorf("%s: empty hash", path)
		}
		if flows := mustGenerate(t, p, env, 1); len(flows) == 0 {
			t.Errorf("%s: generated no flows", path)
		}
	}
}
