package main

import (
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"flexpass/internal/chaos"
	"flexpass/internal/farm"
)

func write(t *testing.T, path, data string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

// pointOf is the sweep point flexsim runs for args.
func pointOf(t *testing.T, args ...string) farm.Point {
	t.Helper()
	o, err := parseFlags(args)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := o.point()
	if err != nil {
		t.Fatal(err)
	}
	return pt
}

// specPoint is the one point of a sweep spec named flexsim.
func specPoint(t *testing.T, spec string) farm.Point {
	t.Helper()
	path := filepath.Join(t.TempDir(), "flexsim.json")
	write(t, path, spec)
	s, err := farm.ParseSpecFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := s.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 {
		t.Fatalf("spec expanded to %d points", len(pts))
	}
	return pts[0]
}

// The default flags are the point a spec file with the same coordinates
// expands to, so a flexsim artifact's scenario hash is the farm's; and
// telemetry stays off until an observer flag asks for it.
func TestDefaultFlagsAreTheSpecPoint(t *testing.T) {
	got := pointOf(t)
	want := specPoint(t, `{"scheme": ["flexpass"], "topology": ["small"], "workload": ["websearch"],
		"load": [0.5], "deployment": [0.5], "wq": [0.5], "seed": [1], "duration_ms": 15, "drain_ms": 60}`)
	if got.Hash() != want.Hash() {
		t.Fatalf("default flags give point %+v (%s), the spec file %+v (%s)", got, got.Hash(), want, want.Hash())
	}
	o, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	sc, repro, err := o.scenario()
	if err != nil {
		t.Fatal(err)
	}
	if repro != nil || sc.Telemetry != nil || sc.Forensics != nil {
		t.Errorf("plain run has repro %v, telemetry %v, forensics %v", repro, sc.Telemetry, sc.Forensics)
	}
	if sc.ManifestConfig["scenario_hash"] != want.Hash() {
		t.Errorf("manifest scenario_hash %q, want %q", sc.ManifestConfig["scenario_hash"], want.Hash())
	}
}

// A non-positive -duration is an error, not the sweep spec's default.
func TestNonPositiveDurationRejected(t *testing.T) {
	for _, d := range []string{"0", "-1"} {
		if _, err := parseFlags([]string{"-duration", d}); err == nil {
			t.Errorf("-duration %s was accepted", d)
		}
	}
}

// A negative -trace-ring is refused, not run without a ring.
func TestNegativeTraceRingRejected(t *testing.T) {
	if _, err := parseFlags([]string{"-trace-ring", "-5"}); err == nil {
		t.Error("-trace-ring -5 was accepted")
	}
	if _, err := parseFlags([]string{"-trace-ring", "0"}); err != nil {
		t.Errorf("-trace-ring 0: %v", err)
	}
}

// -workload t.csv is the one-source trace plan a wrapper .json names.
func TestTraceWorkloadIsTheWrapperPlan(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "t.csv")
	write(t, csv, "at_us,src,dst,size_bytes,incast\n0.000,0,5,20000,0\n1.500,3,9,8000,1\n")
	wrapper := filepath.Join(dir, "wrapper.json")
	write(t, wrapper, `{"name": "t", "sources": [{"kind": "trace", "path": "t.csv"}]}`)

	byTrace, byPlan := pointOf(t, "-workload", csv), pointOf(t, "-workload", wrapper)
	if byTrace.WorkloadHash == "" || byTrace.WorkloadHash != byPlan.WorkloadHash || byTrace.Hash() != byPlan.Hash() {
		t.Fatalf("trace point %s (workload %s), wrapper point %s (workload %s)",
			byTrace.Hash(), byTrace.WorkloadHash, byPlan.Hash(), byPlan.WorkloadHash)
	}
	if name := byTrace.Scenario().WorkloadName(); name != "t" {
		t.Errorf("trace workload named %q, want the file stem", name)
	}
}

// -fault resolves an entry as a sweep spec's fault axis does, and a
// chaos repro replaces the scenario but keeps the observer flags.
func TestFaultEntryResolvesAsTheSpec(t *testing.T) {
	plan, err := filepath.Abs("../../examples/faultplans/flap.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, entry := range []string{"down@tor0.0->h0.0.0@1ms-2ms,burst@tor*@1ms-3ms", plan} {
		got := pointOf(t, "-fault", entry)
		want := specPoint(t, `{"scheme": ["flexpass"], "duration_ms": 15, "drain_ms": 60, "fault": [`+strconv.Quote(entry)+`]}`)
		if got.FaultHash == "" || got.FaultHash != want.FaultHash || got.Hash() != want.Hash() {
			t.Errorf("-fault %s: point %s (plan %s), spec %s (plan %s)", entry, got.Hash(), got.FaultHash, want.Hash(), want.FaultHash)
		}
	}
	if o, err := parseFlags([]string{"-fault", "missing.json"}); err != nil {
		t.Fatal(err)
	} else if _, _, err := o.scenario(); err == nil {
		t.Error("an unreadable fault plan was accepted")
	}

	path := filepath.Join(t.TempDir(), "repro.json")
	r := &chaos.Repro{Chaos: chaos.ReproSchema, Coords: chaos.Coords{
		Scheme: "dctcp", Topo: "tiny", Workload: "websearch", Load: 0.3, Seed: 7, DurationMS: 0.5, DrainMS: 2,
	}}
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	o, err := parseFlags([]string{"-fault", path, "-scheme", "flexpass", "-telemetry-out", "x.jsonl", "-trace-ring", "64"})
	if err != nil {
		t.Fatal(err)
	}
	sc, repro, err := o.scenario()
	if err != nil {
		t.Fatal(err)
	}
	if repro == nil || sc.Scheme != "dctcp" || sc.Forensics == nil || sc.Telemetry == nil || sc.Telemetry.TraceCap != 64 {
		t.Errorf("repro replay: repro %v, scheme %s, forensics %v, telemetry %+v", repro != nil, sc.Scheme, sc.Forensics, sc.Telemetry)
	}
}
