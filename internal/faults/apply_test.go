package faults

import (
	"runtime"
	"testing"

	"flexpass/internal/netem"
	"flexpass/internal/sim"
	"flexpass/internal/topo"
	"flexpass/internal/units"
)

func paperFabric(planes int) (*topo.Fabric, []*sim.Engine) {
	engs := make([]*sim.Engine, planes)
	for i := range engs {
		engs[i] = sim.NewEngine(1)
	}
	return topo.PaperClos.Build(engs, topo.Params{
		LinkRate: 40 * units.Gbps, LinkDelay: sim.Microsecond, HostDelay: sim.Microsecond,
		SwitchBuf: 4500 * units.KB, BufAlpha: 0.25, Profile: topo.FlexPassProfile(topo.Spec{}),
	}), engs
}

// warm gives e room for n events, so scheduling them allocates nothing
// in the engine: what a test measures after it is the caller's own.
func warm(e *sim.Engine, n int) {
	timers := make([]sim.Timer, n)
	for i := range timers {
		timers[i] = e.Schedule(sim.Second, sim.Func(func() {}))
	}
	for i := range timers {
		timers[i].Stop()
	}
}

// TestApplyAllocs bounds the heap objects of applying one burst@* event
// to every port of the paper fabric, on engines with room for the events
// (the engine's event storage is its own cost): the event's engage and
// clear handlers are carved from one array, so the count does not grow
// with the ports it matches. With two closures scheduled per port and
// two more built per port, the same Apply made 2 575 objects at one
// plane, four per port.
func TestApplyAllocs(t *testing.T) {
	const budget = 8 // measured 5 at one plane, 6 at two
	plan, err := ParseSpec("burst@*@0.2ms-0.6ms@0.5")
	if err != nil {
		t.Fatal(err)
	}
	for _, planes := range []int{1, 2} {
		fab, engs := paperFabric(planes)
		ports := 0
		fab.Net.EachPort(func(*netem.Port) { ports++ })
		for _, e := range engs {
			warm(e, 2*ports)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Apply(plan, engs[0], fab.Net); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		got := after.Mallocs - before.Mallocs
		t.Logf("%d planes: %d heap objects", planes, got)
		if got > budget {
			t.Fatalf("one burst@* event on the paper fabric at %d planes made %d heap objects, budget %d", planes, got, budget)
		}
		pending := 0
		for _, e := range engs {
			pending += e.Pending()
		}
		if pending != 2*ports {
			t.Fatalf("%d planes: %d actions scheduled for %d ports, want an engage and a clear each", planes, pending, ports)
		}
	}
}

// BenchmarkApply measures applying one burst@* event to every port of
// the paper fabric; with -benchmem (make bench-hot), allocs/op is the
// plan's heap objects. Each op applies to a fabric of its own, built off
// the clock, so the engines' queues do not grow across ops.
func BenchmarkApply(b *testing.B) {
	plan, err := ParseSpec("burst@*@0.2ms-0.6ms@0.5")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fab, engs := paperFabric(1)
		b.StartTimer()
		if _, err := Apply(plan, engs[0], fab.Net); err != nil {
			b.Fatal(err)
		}
	}
}
