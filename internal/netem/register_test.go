package netem_test

import (
	"runtime"
	"testing"

	"flexpass/internal/obs"
	"flexpass/internal/sim"
	"flexpass/internal/topo"
	"flexpass/internal/units"
)

func paperParams() topo.Params {
	return topo.Params{
		LinkRate: 40 * units.Gbps, LinkDelay: sim.Microsecond, HostDelay: sim.Microsecond,
		SwitchBuf: 4500 * units.KB, BufAlpha: 0.25, Profile: topo.FlexPassProfile(topo.Spec{}),
	}
}

// paperPlanes builds the paper fabric on planes engines, with a fresh
// registry per plane.
func paperPlanes(planes int) (*topo.Fabric, []*obs.Registry) {
	engs := make([]*sim.Engine, planes)
	regs := make([]*obs.Registry, planes)
	for i := range engs {
		engs[i], regs[i] = sim.NewEngine(1), obs.NewRegistry()
	}
	return topo.PaperClos.Build(engs, paperParams()), regs
}

// TestRegisterAllocs bounds the heap objects of registering the whole
// paper fabric: a few per registry (its source array and index, grown
// once, and one string table of entity names), none per node or port.
// With a Register per node and an entity string per port and queue, the
// 15 664 sources took 2 810 objects at one plane.
func TestRegisterAllocs(t *testing.T) {
	want := 0 // the one-plane source count, which two planes split
	for _, planes := range []int{1, 2} {
		fab, regs := paperPlanes(planes)
		budget := uint64(2 + 4*planes) // measured 1 + 3 per plane
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fab.Net.Register(regs, fab.SwitchShard, fab.HostShard, 1)
		runtime.ReadMemStats(&after)
		got := after.Mallocs - before.Mallocs
		t.Logf("%d planes: %d heap objects", planes, got)
		if got > budget {
			t.Fatalf("registering the paper fabric on %d planes made %d heap objects, budget %d", planes, got, budget)
		}
		sources := 0
		for _, reg := range regs {
			sources += len(reg.Final())
		}
		if want == 0 {
			want = sources
		}
		if sources != want {
			t.Fatalf("%d planes registered %d sources, one plane %d", planes, sources, want)
		}
	}
}

// BenchmarkRegister measures registering the paper fabric into fresh
// registries at one and two planes; with -benchmem (make bench-hot),
// allocs/op is the registration's heap objects plus each plane's
// NewRegistry.
func BenchmarkRegister(b *testing.B) {
	for _, bc := range []struct {
		name   string
		planes int
	}{{"paper", 1}, {"paper/planes=2", 2}} {
		b.Run(bc.name, func(b *testing.B) {
			planes := bc.planes
			fab, _ := paperPlanes(planes)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				regs := make([]*obs.Registry, planes)
				for j := range regs {
					regs[j] = obs.NewRegistry()
				}
				fab.Net.Register(regs, fab.SwitchShard, fab.HostShard, 0)
			}
		})
	}
}
