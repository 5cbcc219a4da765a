package prof

import (
	"strings"
	"testing"

	"flexpass/internal/sim"
)

// buildProfiled runs a tiny schedule with two stamped components and
// returns the attached profiler plus the engine.
func buildProfiled(t *testing.T) (*Profiler, *sim.Engine, sim.Component, sim.Component) {
	t.Helper()
	eng := sim.NewEngine(1)
	p := New()
	p.Attach(eng)
	a := eng.Component("transport/flexpass")
	b := eng.Component("netem/tx")
	prev := eng.SetComponent(a)
	for i := 0; i < 10; i++ {
		eng.After(sim.Time(i)*sim.Microsecond, func() {})
	}
	eng.SetComponent(b)
	for i := 0; i < 5; i++ {
		eng.After(sim.Time(i)*sim.Microsecond, func() {})
	}
	eng.SetComponent(prev)
	eng.Run(sim.Second)
	return p, eng, a, b
}

func TestProfilerAttribution(t *testing.T) {
	p, _, a, b := buildProfiled(t)
	if got := p.Stats(a).Events; got != 10 {
		t.Fatalf("component a dispatched %d events, want 10", got)
	}
	if got := p.Stats(b).Events; got != 5 {
		t.Fatalf("component b dispatched %d events, want 5", got)
	}
	sa := p.Stats(a)
	if sa.Wall < 0 || sa.Max < 0 || sa.Max > sa.Wall {
		t.Fatalf("implausible accounting: wall=%v max=%v", sa.Wall, sa.Max)
	}
	var bucketed int64
	for _, n := range sa.Buckets {
		bucketed += n
	}
	if bucketed != int64(sa.Events) {
		t.Fatalf("histogram holds %d observations, want %d", bucketed, sa.Events)
	}
}

func TestProfilerExport(t *testing.T) {
	p, _, _, _ := buildProfiled(t)
	out := p.Export()
	byName := map[string]uint64{}
	for _, cp := range out {
		byName[cp.Component] = cp.Events
		if len(cp.Le) != len(cp.Counts) {
			t.Fatalf("%s: le/counts length mismatch: %d vs %d", cp.Component, len(cp.Le), len(cp.Counts))
		}
		var n int64
		for _, c := range cp.Counts {
			if c == 0 {
				t.Fatalf("%s: zero-count bucket not elided", cp.Component)
			}
			n += c
		}
		if n != int64(cp.Events) {
			t.Fatalf("%s: bucket sum %d != events %d", cp.Component, n, cp.Events)
		}
	}
	if byName["transport/flexpass"] != 10 || byName["netem/tx"] != 5 {
		t.Fatalf("export = %v", byName)
	}
}

func TestWriteFolded(t *testing.T) {
	p, _, _, _ := buildProfiled(t)
	var b strings.Builder
	if err := WriteFoldedProfile(&b, p.Export()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("folded output has %d lines, want 2:\n%s", len(lines), b.String())
	}
	seen := map[string]bool{}
	for _, l := range lines {
		fields := strings.Fields(l)
		if len(fields) != 2 || !strings.HasPrefix(fields[0], "engine;") {
			t.Fatalf("malformed folded line %q", l)
		}
		seen[fields[0]] = true
	}
	if !seen["engine;transport/flexpass"] || !seen["engine;netem/tx"] {
		t.Fatalf("folded output missing components:\n%s", b.String())
	}
}

func TestWriteTable(t *testing.T) {
	p, _, _, _ := buildProfiled(t)
	var b strings.Builder
	if err := WriteTableProfile(&b, p.Export()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"COMPONENT", "transport/flexpass", "netem/tx", "total"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

// TestNilProfiler pins the nil-no-op contract: every method on a nil
// profiler is callable.
func TestNilProfiler(t *testing.T) {
	var p *Profiler
	p.Attach(sim.NewEngine(1))
	if s := p.Stats(0); s.Events != 0 {
		t.Fatal("nil profiler must report zero stats")
	}
	if out := p.Export(); out != nil {
		t.Fatal("nil profiler must export nil")
	}
	var b strings.Builder
	if err := WriteFoldedProfile(&b, p.Export()); err != nil || b.Len() != 0 {
		t.Fatal("nil profiler's export must fold to nothing")
	}
}

// TestMergeExportsOfOneIsThatExport: one export merges to itself (no
// copy, the single-engine fold); two exports sum per component.
func TestMergeExportsOfOneIsThatExport(t *testing.T) {
	p, _, _, _ := buildProfiled(t)
	exp := p.Export()
	if len(exp) == 0 {
		t.Fatal("empty export")
	}
	if one := MergeExports(exp); &one[0] != &exp[0] {
		t.Fatal("merge of one export copied it")
	}
	two := MergeExports(exp, exp)
	if len(two) != len(exp) || two[0].Events != 2*exp[0].Events || two[0].Component != exp[0].Component {
		t.Fatalf("merge of two exports: %+v vs %+v", two[0], exp[0])
	}
}
