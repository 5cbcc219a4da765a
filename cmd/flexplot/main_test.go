package main

import (
	"strings"
	"testing"

	"flexpass/internal/obs"
	"flexpass/internal/sim"
)

// TestTimelineRender renders a fixed timeline and one fault line through
// the flow view flexplot and flexsim share, and wants each kind of row.
func TestTimelineRender(t *testing.T) {
	us := int64(sim.Microsecond)
	tl := &obs.TimelineData{
		Flow: 7, Transport: "flexpass", Size: 3000, StartPs: 10 * us, FctPs: 40 * us, Slowdown: 2.5,
		Hops: []obs.HopData{
			{AtPs: 11 * us, Port: "tor0->h1", Queue: 1, Event: "enq", Kind: "pro-data", Seq: 0, QueueBytes: 1538},
			{AtPs: 12 * us, Port: "tor0->h1", Queue: 1, Event: "deq", Kind: "pro-data", Seq: 0, WaitPs: us, TxPs: 2 * us},
			{AtPs: 13 * us, Port: "tor0->h1", Queue: 1, Event: "drop", Kind: "pro-data", Seq: 1, Color: "red", Reason: "selective"},
		},
		Delays: []obs.HopDelayData{{Port: "tor0->h1", Dequeues: 1, Drops: 1, TotalWaitPs: us, MaxWaitPs: us}},
		Events: []obs.TraceData{{AtPs: 14 * us, Kind: "retx", Flow: 7, Seq: 1, Note: "timeout"}},
	}
	faults := []obs.FaultData{{AtPs: 12500 * int64(sim.Nanosecond), Kind: "link-down", Link: "tor0->h1"}}

	render := func(maxRows int, raise string) string {
		var b strings.Builder
		if err := tl.Render(&b, faults, maxRows, raise); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	out := render(obs.TimelineRows, "")
	for _, want := range []string{
		"flow 7 flexpass size=3000B start=10.000us fct=40.000us slowdown=2.50\n",
		"per-hop queueing delay:\n",
		"  tor0->h1                         1 pkts  avg 1.000us    max 1.000us    drops 1\n",
		"timeline:\n",
		"      11.000us  enq  tor0->h1                 q1  pro-data     seq=0      queue 1538B\n",
		"      12.000us  deq  tor0->h1                 q1  pro-data     seq=0      waited 1.000us, tx 2.000us\n",
		"      12.500us  ⚡    link-down    tor0->h1\n",
		"      13.000us  drop tor0->h1                 q1  pro-data     seq=1      red reason selective\n",
		"      14.000us  ◆    retx         seq=1 timeout\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render lacks %q:\n%s", want, out)
		}
	}
	if strings.Index(out, "⚡") > strings.Index(out, "drop ") {
		t.Errorf("the fault row is out of time order:\n%s", out)
	}

	// Five rows under a cap of three: the two oldest go, and the header
	// names what to raise only when the caller gives it.
	out = render(3, "-hops or the HopCap")
	if !strings.Contains(out, "timeline (2 older records elided; raise -hops or the HopCap):\n") ||
		strings.Contains(out, " enq ") || strings.Contains(out, " deq ") || !strings.Contains(out, "◆") {
		t.Errorf("a capped render does not keep the newest rows:\n%s", out)
	}
	if out = render(3, ""); !strings.Contains(out, "timeline (2 older records elided):\n") {
		t.Errorf("a capped render without a hint:\n%s", out)
	}
}
