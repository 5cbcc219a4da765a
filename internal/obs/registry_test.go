package obs_test

import (
	"fmt"
	"runtime"
	"testing"

	"flexpass/internal/netem"
	"flexpass/internal/obs"
	"flexpass/internal/sim"
	"flexpass/internal/topo"
	"flexpass/internal/units"
)

// TestRegistryBytesPerSource registers the paper fabric into a registry
// that netem's Register sizes once: what the registry allocates, entity
// names included, stays within 1.3 × (a source's slot + one map entry)
// per source. Grown a source at a time, the slice's growth copies and a
// map resized as it filled cost ≈ 500 B per source; sized once into a Go
// map, whose tables round up to a power of two, ≈ 160 B.
func TestRegistryBytesPerSource(t *testing.T) {
	fab := topo.PaperClos.Build([]*sim.Engine{sim.NewEngine(1)}, topo.Params{
		LinkRate: 40 * units.Gbps, LinkDelay: sim.Microsecond, HostDelay: sim.Microsecond,
		SwitchBuf: 4500 * units.KB, BufAlpha: 0.25, Profile: topo.FlexPassProfile(topo.Spec{}),
	})
	// A port is 6 sources and 6 per queue, a switch 2 and a host 1 beside.
	n := 0
	fab.Net.EachPort(func(p *netem.Port) { n += 6 + 6*p.NumQueues() })
	n += 2*len(fab.Net.Switches) + len(fab.Net.Hosts)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	reg := obs.NewRegistry()
	fab.Net.Register([]*obs.Registry{reg}, nil, nil, 0)
	runtime.ReadMemStats(&after)
	if got := len(reg.Final()); got != n {
		t.Fatalf("the fabric registered %d sources, want %d", got, n)
	}
	per := float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	budget := 1.3 * float64(obs.SourceSize+obs.MapSlot)
	t.Logf("%d sources, %.1f B each", n, per)
	if per > budget {
		t.Fatalf("registration allocated %.1f B per source, budget %.1f", per, budget)
	}
}

// TestRegistryIndexGrows registers past several index resizes without
// Grow, then re-registers every source: each keeps its place and takes
// the new address.
func TestRegistryIndexGrows(t *testing.T) {
	reg := obs.NewRegistry()
	const n = 1000
	old, cur := make([]int64, n), make([]int64, n)
	for i := range cur {
		old[i], cur[i] = -1, int64(i)
		reg.GaugeAt(fmt.Sprintf("e%04d", i), "m", &old[i])
	}
	for i := range cur {
		reg.GaugeAt(fmt.Sprintf("e%04d", i), "m", &cur[i])
	}
	fin := reg.Final()
	if len(fin) != n {
		t.Fatalf("%d sources after re-registration, want %d", len(fin), n)
	}
	for i, c := range fin {
		if c.Value != int64(i) {
			t.Fatalf("source %s reads %d, want %d", c.Entity, c.Value, i)
		}
	}
}

// TestRegistryReregisterAllocatesNothing fills new registries' indexes to
// their half-full threshold, then re-registers a name already there:
// replacing a source adds none, so the index is not rebuilt. Each
// measured call is the first replacement on a registry of its own, so a
// rebuild on replacement would allocate in every run, not once in the
// warm-up that AllocsPerRun leaves unmeasured.
func TestRegistryReregisterAllocatesNothing(t *testing.T) {
	const runs = 100
	v := [8]int64{10, 11, 12, 13, 14, 15, 16, 17}
	regs := make([]*obs.Registry, runs+1) // AllocsPerRun calls once more to warm up
	for r := range regs {
		regs[r] = obs.NewRegistry()
		for i := range v {
			regs[r].GaugeAt("e", fmt.Sprint(i), &v[i])
		}
	}
	next := 0
	replace := func() { regs[next].GaugeAt("e", "0", &v[1]); next++ }
	if n := testing.AllocsPerRun(runs, replace); n != 0 {
		t.Fatalf("re-registering allocated %v objects", n)
	}
	if next != len(regs) {
		t.Fatalf("%d replacements, want %d", next, len(regs))
	}
	for _, reg := range regs {
		if fin := reg.Final(); len(fin) != len(v) || fin[0].Value != v[1] {
			t.Fatalf("after re-registration: %+v, want %d sources with e/0 reading %d", fin, len(v), v[1])
		}
	}
}
