package harness

import (
	"fmt"
	"testing"

	"flexpass/internal/sim"
	"flexpass/internal/units"
)

// frameLeak is the frame-balance oracle: once a run's engines stop, every
// frame the fabric's pools handed out is on a free list, in a port queue,
// on a wire, waiting out a host delay or in a shard cut's hand-off. It
// returns the frames found nowhere: leaked, or, if negative, counted
// twice.
func frameLeak(b *built) int64 {
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
// frames and burst loss recycles them.
func TestFrameBalance(t *testing.T) {
	cut := func(sc Scenario) Scenario { sc.Drain = 0; return sc }
	for _, shards := range []int{1, 2, 4} {
		names := []string{"flexpass/drained"}
		cases := []Scenario{shardScenario(SchemeFlexPass, shards)}
		for _, scheme := range allSchemeNames {
			names = append(names, string(scheme)+"/cut")
			cases = append(cases, cut(shardScenario(scheme, shards)))
		}
		red := cut(shardScenario(SchemeFlexPass, shards))
		red.Spec.FlexRed = 3 * units.KB
		names, cases = append(names, "flexpass/red"), append(cases, red)
		faulted := cut(shardFaultScenario(SchemeFlexPass))
		faulted.Shards, faulted.Duration, faulted.FaultPlan = shards, 1500*sim.Microsecond, shardFaultPlan(t)
		names, cases = append(names, "flexpass/faulted"), append(cases, faulted)
		for i, sc := range cases {
			t.Run(fmt.Sprintf("%s/shards=%d", names[i], shards), func(t *testing.T) {
				b := build(sc)
				res := b.run()
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
}

// TestFrameLeakCaught: a frame a host takes mid-run and never sends is
// one frame the oracle cannot find, at one shard and at two.
func TestFrameLeakCaught(t *testing.T) {
	for _, shards := range []int{1, 2} {
		b := build(shardScenario(SchemeFlexPass, shards))
		h := b.fab.Net.Host(0)
		h.NIC().Engine().At(sim.Millisecond, func() { h.NewPacket() })
		b.run()
		if n := frameLeak(b); n != 1 {
			t.Fatalf("shards=%d: the oracle finds %d frames leaked, want the 1 taken", shards, n)
		}
	}
}
