package harness

import (
	"fmt"
	"testing"

	"flexpass/internal/sim"
	"flexpass/internal/topo"
	"flexpass/internal/workload"
)

// frameLeak is the frame-balance oracle: once a run's engines stop, every
// frame the fabric's pools handed out is on a free list, in a port queue,
// on a wire, waiting out a host delay or in a shard cut's hand-off. It
// returns the frames found nowhere: leaked, or, if negative, counted
// twice.
func frameLeak(b *Session) int64 {
	fresh, held := b.fab.Net.Frames()
	if b.rt != nil {
		held += b.rt.InFlight()
	}
	return fresh - held
}

// TestFrameBalance holds the frame balance at shards 1, 2 and 4: for
// every scheme cut off mid-traffic (frames queued, on wires and in the
// cut's hand-off), for FlexPass drained, for FlexPass with a 3 kB red
// threshold (selective drops recycle frames), and for FlexPass cut off
// inside the flap-and-burst plan's blackhole, where a downed port holds
// frames and burst loss recycles them. The testbed rows are sessions on
// the two testbed layouts, as the Testbed façade builds them, cut off
// mid-traffic with the golden mixed flows plus Homa and pHost.
func TestFrameBalance(t *testing.T) {
	cut := func(sc Scenario) Scenario { sc.Drain = 0; return sc }
	for _, shards := range []int{1, 2, 4} {
		names := []string{"flexpass/drained"}
		cases := []Scenario{shardScenario(SchemeFlexPass, shards)}
		for _, scheme := range allSchemeNames {
			names = append(names, string(scheme)+"/cut")
			cases = append(cases, cut(shardScenario(scheme, shards)))
		}
		names, cases = append(names, "flexpass/red"), append(cases, cut(redScenario(shards)))
		faulted := cut(shardFaultScenario(SchemeFlexPass))
		faulted.Shards, faulted.Duration, faulted.FaultPlan = shards, 1500*sim.Microsecond, shardFaultPlan(t)
		names, cases = append(names, "flexpass/faulted"), append(cases, faulted)
		for i, sc := range cases {
			t.Run(fmt.Sprintf("%s/shards=%d", names[i], shards), func(t *testing.T) {
				b := Open(sc)
				b.Run(sc.Duration + sc.Drain)
				res := b.Close()
				if names[i] == "flexpass/red" && res.DropsRed == 0 {
					t.Fatal("a 3 kB red threshold dropped nothing")
				}
				if n := frameLeak(b); n != 0 {
					fresh, held := b.fab.Net.Frames()
					t.Fatalf("%d frames unaccounted for: pools handed out %d, the fabric holds %d", n, fresh, held)
				}
			})
		}
	}
	for _, layout := range []topo.Layout{topo.SingleSwitchLayout{N: 5}, topo.DumbbellLayout{Left: 2, Right: 3}} {
		t.Run("testbed/"+layout.String()+"/cut", func(t *testing.T) {
			sc := BaseFor(layout)
			sc.Seed, sc.Spec, sc.TraceFlows = 7, topo.Spec{}, []workload.FlowSpec{}
			s := Open(sc)
			flows := []struct {
				at       sim.Time
				scheme   string
				src, dst int
				size     int64
			}{
				{0, "flexpass", 0, 4, 2_000_000},
				{0, "dctcp", 4, 0, 500_000},
				{100 * sim.Microsecond, "expresspass", 1, 4, 150_000},
				{120 * sim.Microsecond, "flexpass", 2, 4, 30_000},
				{130 * sim.Microsecond, "dctcp", 3, 4, 8_000},
				{200 * sim.Microsecond, "expresspass", 1, 2, 1_460},
				{2 * sim.Millisecond, "flexpass", 0, 4, 64_000},
				{50 * sim.Microsecond, "homa", 3, 1, 300_000},
				{50 * sim.Microsecond, "phost", 2, 0, 300_000},
			}
			for _, f := range flows {
				s.StartFlow(f.at, f.scheme, f.src, f.dst, f.size)
			}
			s.Run(sim.Millisecond)
			s.Close()
			if s.Flows()[0].Completed {
				t.Fatal("the 2 MB flow finished inside the first millisecond: nothing was cut off")
			}
			if n := frameLeak(s); n != 0 {
				fresh, held := s.fab.Net.Frames()
				t.Fatalf("%d frames unaccounted for: pools handed out %d, the fabric holds %d", n, fresh, held)
			}
		})
	}
}

// TestFrameLeakCaught: a frame a host takes mid-run and never sends is
// one frame the oracle cannot find, at one shard and at two.
func TestFrameLeakCaught(t *testing.T) {
	for _, shards := range []int{1, 2} {
		sc := shardScenario(SchemeFlexPass, shards)
		b := Open(sc)
		h := b.fab.Net.Host(0)
		h.NIC().Engine().At(sim.Millisecond, func() { h.NewPacket() })
		b.Run(sc.Duration + sc.Drain)
		b.Close()
		if n := frameLeak(b); n != 1 {
			t.Fatalf("shards=%d: the oracle finds %d frames leaked, want the 1 taken", shards, n)
		}
	}
}
