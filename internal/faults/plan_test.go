package faults

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flexpass/internal/netem"
	"flexpass/internal/sim"
	"flexpass/internal/units"
)

// testFabric builds a 2-sender/1-receiver single switch, the same shape
// as netem's fault tests.
func testFabric(eng *sim.Engine) (*netem.Network, []*netem.Host) {
	net := netem.NewNetwork(eng)
	sw := netem.NewSwitch(eng, net.AllocID(), "sw0", nil)
	qcfg := netem.PortConfig{Queues: []netem.QueueConfig{{Name: "Q0"}}}
	for _, name := range []string{"h0", "h1", "h2"} {
		id := net.AllocID()
		nic := netem.NewPort(eng, name+":nic", 10*units.Gbps, sim.Microsecond, qcfg, nil)
		h := netem.NewHost(eng, id, name, nic, 0)
		nic.Connect(sw)
		net.AddHost(h)
		p := netem.NewPort(eng, "sw0->"+name, 10*units.Gbps, sim.Microsecond, qcfg, nil)
		p.Connect(h)
		sw.AddPort(p)
		sw.AddRoute(id, p)
	}
	net.AddSwitch(sw)
	return net, net.Hosts
}

func TestTimeSpecJSON(t *testing.T) {
	cases := []struct {
		in   string
		want sim.Time
	}{
		{`1500000`, 1500 * sim.Nanosecond},
		{`"2ms"`, 2 * sim.Millisecond},
		{`"250us"`, 250 * sim.Microsecond},
		{`"1.5s"`, 1500 * sim.Millisecond},
		{`"40ns"`, 40 * sim.Nanosecond},
		{`"7ps"`, 7 * sim.Picosecond},
		{`"12"`, 12 * sim.Picosecond},
	}
	for _, c := range cases {
		var ts TimeSpec
		if err := json.Unmarshal([]byte(c.in), &ts); err != nil {
			t.Fatalf("unmarshal %s: %v", c.in, err)
		}
		if ts.Time() != c.want {
			t.Fatalf("%s parsed to %v, want %v", c.in, ts.Time(), c.want)
		}
		// Round trip: marshals as exact picoseconds.
		out, err := json.Marshal(ts)
		if err != nil {
			t.Fatal(err)
		}
		var back TimeSpec
		if err := json.Unmarshal(out, &back); err != nil || back != ts {
			t.Fatalf("round trip %s -> %s -> %v (err %v)", c.in, out, back, err)
		}
	}
	var ts TimeSpec
	if err := json.Unmarshal([]byte(`"2 fortnights"`), &ts); err == nil {
		t.Fatal("nonsense unit accepted")
	}
	if err := json.Unmarshal([]byte(`{"no":1}`), &ts); err == nil {
		t.Fatal("object accepted as time")
	}
}

func TestPlanValidateErrors(t *testing.T) {
	ev := func(e Event) *Plan { return &Plan{Events: []Event{e}} }
	ms := func(n int64) TimeSpec { return TimeSpec(sim.Time(n) * sim.Millisecond) }
	cases := []struct {
		name  string
		plan  *Plan
		field string
	}{
		{"unknown kind", ev(Event{Kind: "meteor-strike", Link: "x", At: ms(1)}), "kind"},
		{"empty link", ev(Event{Kind: LinkDown, At: ms(1)}), "link"},
		{"bad glob", ev(Event{Kind: LinkDown, Link: "[", At: ms(1)}), "link"},
		{"negative at", ev(Event{Kind: LinkDown, Link: "x", At: -1}), "at"},
		{"end before at", ev(Event{Kind: LinkDown, Link: "x", At: ms(2), End: ms(1)}), "end"},
		{"end on point kind", ev(Event{Kind: LinkUp, Link: "x", At: ms(1), End: ms(2)}), "end"},
		{"fraction too big", ev(Event{Kind: RateDegrade, Link: "x", At: ms(1), Fraction: 1.5}), "fraction"},
		{"fraction zero", ev(Event{Kind: RateDegrade, Link: "x", At: ms(1)}), "fraction"},
		{"credit rate zero", ev(Event{Kind: CreditLoss, Link: "x", At: ms(1)}), "rate"},
		{"loss out of range", ev(Event{Kind: BurstLoss, Link: "x", At: ms(1), LossBad: 1.2}), "loss_bad"},
		{"sub-packet burst", ev(Event{Kind: BurstLoss, Link: "x", At: ms(1), BadLen: 0.5}), "bad_len"},
		{"overlapping downs", &Plan{Events: []Event{
			{Kind: LinkDown, Link: "x", At: ms(1), End: ms(5)},
			{Kind: LinkDown, Link: "x", At: ms(3), End: ms(6)},
		}}, "at"},
		{"up without down", ev(Event{Kind: LinkUp, Link: "x", At: ms(1)}), "at"},
		{"restore without degrade", ev(Event{Kind: RateRestore, Link: "x", At: ms(1)}), "at"},
	}
	for _, c := range cases {
		err := c.plan.Validate()
		var pe *PlanError
		if !errors.As(err, &pe) {
			t.Fatalf("%s: got %v, want *PlanError", c.name, err)
		}
		if pe.Field != c.field {
			t.Fatalf("%s: error field %q, want %q (%v)", c.name, pe.Field, c.field, err)
		}
	}
}

func TestPlanValidateAccepts(t *testing.T) {
	ms := func(n int64) TimeSpec { return TimeSpec(sim.Time(n) * sim.Millisecond) }
	p := &Plan{Events: []Event{
		// Back-to-back intervals sharing a boundary are legal.
		{Kind: LinkDown, Link: "a", At: ms(1), End: ms(2)},
		{Kind: LinkDown, Link: "a", At: ms(2), End: ms(3)},
		// Explicit down/up pairing.
		{Kind: LinkDown, Link: "b", At: ms(1)},
		{Kind: LinkUp, Link: "b", At: ms(4)},
		// Same-window faults on different links don't interact.
		{Kind: RateDegrade, Link: "c", At: ms(1), End: ms(9), Fraction: 0.25},
		{Kind: BurstLoss, Link: "c", At: ms(1), End: ms(9)},
		{Kind: CreditLoss, Link: "c", At: ms(1), End: ms(9), Rate: 0.5},
	}}
	if err := p.Validate(); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	if got, want := p.End(), 9*sim.Millisecond; got != want {
		t.Fatalf("End() = %v, want %v", got, want)
	}
}

func TestParsePlanJSON(t *testing.T) {
	src := `{
		"name": "flap",
		"events": [
			{"kind": "link-down", "link": "sw0->h2", "at": "1ms", "end": "2ms"},
			{"kind": "burst-loss", "link": "sw0->*", "at": 3000000000, "end": "4ms", "bad_len": 4, "good_len": 50}
		]
	}`
	p, err := ParsePlan([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "flap" || len(p.Events) != 2 {
		t.Fatalf("parsed %+v", p)
	}
	if p.Events[1].At.Time() != 3*sim.Millisecond {
		t.Fatalf("numeric time parsed to %v", p.Events[1].At.Time())
	}
	// Round trip through json.Marshal preserves the plan exactly.
	out, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ParsePlan(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(p2.Events) != 2 || p2.Events[0] != p.Events[0] || p2.Events[1] != p.Events[1] {
		t.Fatalf("round trip mismatch: %+v vs %+v", p, p2)
	}

	if _, err := ParsePlan([]byte(`{"events": [{"kind": "link-down", "link": "x", "at": "1ms", "typo_field": 3}]}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	for _, tail := range []string{` trailing`, ` {"events": []}`, `}`} {
		if _, err := ParsePlan([]byte(`{"events": []}` + tail)); err == nil {
			t.Fatalf("trailing data %q accepted", tail)
		}
	}
	if _, err := ParsePlan([]byte(`{`)); err == nil {
		t.Fatal("truncated JSON accepted")
	}
}

// TestParsePlanFile: the file front door names an unnamed plan after the
// file stem, keeps a plan's own name, and names the file in a parse error.
func TestParsePlanFile(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	const ev = `"events": [{"kind": "link-down", "link": "x", "at": "1ms", "end": "2ms"}]`
	for _, tc := range []struct{ file, body, want string }{
		{"flap.json", `{` + ev + `}`, "flap"}, // unnamed: the file stem
		{"b.json", `{"name": "mine", ` + ev + `}`, "mine"},
	} {
		p, err := ParsePlanFile(write(tc.file, tc.body))
		if err != nil {
			t.Fatal(err)
		}
		if p.Name != tc.want || len(p.Events) != 1 {
			t.Fatalf("%s: name %q with %d events, want %q with 1", tc.file, p.Name, len(p.Events), tc.want)
		}
	}
	if _, err := ParsePlanFile(write("bad.json", `{"events": [{"kind": "meteor"}]}`)); err == nil || !strings.Contains(err.Error(), "bad.json") {
		t.Fatalf("invalid plan: err %v, want one naming the file", err)
	}
	if _, err := ParsePlanFile(filepath.Join(dir, "missing.json")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: err %v", err)
	}
}

func TestParseSpec(t *testing.T) {
	p, err := ParseSpec("down@sw0->h2@1ms-2ms,rate@sw0->h1@3ms-4ms@0.25,burst@sw0->*@5ms-6ms@0.9@4@50,credit@*@7ms-8ms@0.3")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Events) != 4 {
		t.Fatalf("parsed %d events", len(p.Events))
	}
	if p.Events[0].Kind != LinkDown || p.Events[0].At.Time() != sim.Millisecond || p.Events[0].End.Time() != 2*sim.Millisecond {
		t.Fatalf("down event: %+v", p.Events[0])
	}
	if p.Events[1].Fraction != 0.25 || p.Events[2].LossBad != 0.9 || p.Events[2].BadLen != 4 || p.Events[3].Rate != 0.3 {
		t.Fatalf("parameters lost: %+v", p.Events)
	}
	g := p.Events[2].Model()
	if g.PBadGood != 0.25 || g.PGoodBad != 0.02 || g.LossBad != 0.9 {
		t.Fatalf("burst model: %+v", g)
	}

	for _, bad := range []string{
		"down@x",                // missing window
		"explode@x@1ms",         // unknown op
		"rate@x@1ms-2ms",        // missing fraction
		"credit@x@1ms-2ms",      // missing rate
		"down@x@2ms-1ms",        // inverted window
		"down@x@eleven",         // unparseable time
		"burst@x@1ms-2ms@nope",  // unparseable probability
		"rate@x@1ms-2ms@1.5",    // fraction out of range
		"credit@x@1ms-2ms@-0.1", // rate out of range
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}
}

// TestApplyFlap schedules a down/up pair through a real engine and
// checks the port state machine and the fired-action log.
func TestApplyFlap(t *testing.T) {
	eng := sim.NewEngine(5)
	net, hosts := testFabric(eng)
	plan, err := ParseSpec("down@sw0->h2@1ms-2ms")
	if err != nil {
		t.Fatal(err)
	}
	applied, err := Apply(plan, eng, net)
	if err != nil {
		t.Fatal(err)
	}
	bottleneck := net.FindPort("sw0->h2")
	if bottleneck == nil {
		t.Fatal("FindPort failed")
	}
	dst := hosts[2].NodeID()
	send := func() { hosts[0].Send(&netem.Packet{Dst: dst, Flow: 1, Size: 1500}) }
	eng.At(500*sim.Microsecond, send)  // before the fault: delivers
	eng.At(1500*sim.Microsecond, send) // during: blackholed
	eng.At(2500*sim.Microsecond, send) // after: delivers
	eng.At(1500*sim.Microsecond, func() {
		if !bottleneck.Down() {
			t.Error("port not down inside the fault window")
		}
	})
	eng.Run(3 * sim.Millisecond)

	if hosts[2].RxPackets != 2 {
		t.Fatalf("delivered %d, want 2 (one blackholed)", hosts[2].RxPackets)
	}
	if st := bottleneck.FaultStats(); st.LinkDown != 1 {
		t.Fatalf("FaultStats = %+v, want 1 link-down drop", st)
	}
	acts := applied.Export()
	if len(acts) != 2 ||
		acts[0].Kind != string(LinkDown) || acts[0].AtPs != int64(sim.Millisecond) || acts[0].Link != "sw0->h2" ||
		acts[1].Kind != string(LinkUp) || acts[1].AtPs != int64(2*sim.Millisecond) {
		t.Fatalf("action log: %+v", acts)
	}
}

// TestApplyGlobAndUnknown: a glob hits every matching port; a pattern
// hitting nothing is a typed error.
func TestApplyGlobAndUnknown(t *testing.T) {
	eng := sim.NewEngine(5)
	net, _ := testFabric(eng)
	plan, err := ParseSpec("rate@sw0->*@1ms-2ms@0.5")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Apply(plan, eng, net); err != nil {
		t.Fatal(err)
	}
	eng.Run(1500 * sim.Microsecond)
	for _, name := range []string{"sw0->h0", "sw0->h1", "sw0->h2"} {
		p := net.FindPort(name)
		if p.EffectiveRate() != 5*units.Gbps {
			t.Fatalf("%s at %v inside degrade window, want 5Gbps", name, p.EffectiveRate())
		}
	}
	// NICs don't match the glob.
	if p := net.FindPort("h0:nic"); p.EffectiveRate() != 10*units.Gbps {
		t.Fatalf("glob leaked onto %s", p.Name())
	}

	missing, err := ParseSpec("down@tor9->nowhere@1ms-2ms")
	if err != nil {
		t.Fatal(err)
	}
	_, err = Apply(missing, sim.NewEngine(1), net)
	var ule *UnknownLinkError
	if !errors.As(err, &ule) || ule.Pattern != "tor9->nowhere" {
		t.Fatalf("got %v, want *UnknownLinkError", err)
	}
}
