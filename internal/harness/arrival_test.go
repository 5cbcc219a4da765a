package harness

import (
	"slices"
	"testing"

	"flexpass/internal/obs"
	"flexpass/internal/sim"
	"flexpass/internal/trace"
	"flexpass/internal/transport"
	"flexpass/internal/workload"
)

// TestArrivalCursorOneEventPerPlane: after Open, each plane's engine
// holds one pending event — its next arrival — whatever the flow count.
func TestArrivalCursorOneEventPerPlane(t *testing.T) {
	for _, shards := range []int{1, 2} {
		owed := map[sim.Time]int{}
		for _, window := range []sim.Time{3 * sim.Millisecond, 30 * sim.Millisecond} {
			sc := shardScenario(SchemeFlexPass, shards)
			sc.Duration = window
			for i, pl := range Open(sc).planes {
				owed[window] += len(pl.arrivals)
				if pl.eng.Pending() != 1 {
					t.Errorf("%v window, shards %d, plane %d: %d events pending for %d arrivals, want one",
						window, shards, i, pl.eng.Pending(), len(pl.arrivals))
				}
			}
		}
		if owed[30*sim.Millisecond] < 5*owed[3*sim.Millisecond] {
			t.Errorf("shards %d: %v arrivals owed; the longer window should owe several times more", shards, owed)
		}
	}
}

// TestArrivalCursorOrder: flows that share a start instant start in spec
// order, an earlier start listed later goes first, and a flow that starts
// past the run window never starts — the cursor stops in front of it.
func TestArrivalCursorOrder(t *testing.T) {
	sc := shardScenario(Scheme(transport.SchemeDCTCP), 1)
	sc.Telemetry = &obs.Options{TraceCap: 1 << 16}
	at := 100 * sim.Microsecond
	sc.TraceFlows = []workload.FlowSpec{
		{Src: 0, Dst: 4, Size: 50_000, At: at},
		{Src: 5, Dst: 1, Size: 50_000, At: at / 2},
		{Src: 2, Dst: 6, Size: 50_000, At: at},
		{Src: 1, Dst: 5, Size: 50_000, At: sc.Duration + sc.Drain + sim.Microsecond},
		{Src: 7, Dst: 3, Size: 50_000, At: at},
	}
	b := Open(sc)
	b.Run(sc.Duration + sc.Drain)
	res := b.Close()
	var started []uint64
	res.Trace.Each(func(ev trace.Event) {
		if ev.Kind == trace.FlowStart {
			started = append(started, ev.Flow)
		}
	})
	if want := []uint64{2, 1, 3, 5}; !slices.Equal(started, want) {
		t.Fatalf("flows started in order %v, want %v", started, want)
	}
	late := b.flows[3]
	if late.Transport != "" || late.Src.Eng.Pending() == 0 {
		t.Fatalf("flow past the window started (transport %q) or lost its pending arrival", late.Transport)
	}
	if pl := b.planes[0]; pl.arrivals[pl.next].fl != late {
		t.Fatalf("cursor stopped at flow %d, want %d", pl.arrivals[pl.next].fl.ID, late.ID)
	}
}

// TestStartFlowJoinsCursor: a session's StartFlow joins the plane's one
// cursor event instead of scheduling its own, in the order At would
// have given it — TestArrivalCursorOrder's flows, handed over one by
// one, start in that test's order — and a flow added between Runs that
// starts before every pending one re-arms the cursor and goes first.
func TestStartFlowJoinsCursor(t *testing.T) {
	sc := shardScenario(Scheme(transport.SchemeDCTCP), 1)
	sc.Telemetry = &obs.Options{TraceCap: 1 << 16}
	sc.TraceFlows = []workload.FlowSpec{}
	s := Open(sc)
	eng := s.Engine()
	idle := eng.Pending()
	at := 100 * sim.Microsecond
	for _, f := range []workload.FlowSpec{
		{Src: 0, Dst: 4, At: at}, {Src: 5, Dst: 1, At: at / 2}, {Src: 2, Dst: 6, At: at},
		{Src: 1, Dst: 5, At: sc.Duration + sc.Drain + sim.Microsecond}, {Src: 7, Dst: 3, At: at},
	} {
		s.StartFlow(f.At, transport.SchemeDCTCP, f.Src, f.Dst, 50_000)
		if n := eng.Pending(); n != idle+1 {
			t.Fatalf("%d events pending after a StartFlow, want %d: one cursor for every flow", n, idle+1)
		}
	}
	s.Run(at / 4)
	s.StartFlow(at/4+sim.Microsecond, transport.SchemeDCTCP, 3, 7, 50_000)
	if n := eng.Pending(); n != idle+1 {
		t.Fatalf("%d events pending after an earlier StartFlow, want %d", n, idle+1)
	}
	s.Run(sc.Duration + sc.Drain)
	res := s.Close()
	var started []uint64
	res.Trace.Each(func(ev trace.Event) {
		if ev.Kind == trace.FlowStart {
			started = append(started, ev.Flow)
		}
	})
	if want := []uint64{6, 2, 1, 3, 5}; !slices.Equal(started, want) {
		t.Fatalf("flows started in order %v, want %v", started, want)
	}
}
