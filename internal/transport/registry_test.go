package transport_test

import (
	"strings"
	"testing"

	"flexpass/internal/obs"
	"flexpass/internal/sim"
	"flexpass/internal/topo"
	"flexpass/internal/transport"
	_ "flexpass/internal/transport/schemes"
	"flexpass/internal/units"
)

func TestSchemeNamesIncludeBuiltins(t *testing.T) {
	names := transport.SchemeNames()
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	for _, want := range []string{
		transport.SchemeDCTCP, transport.SchemeExpressPass, transport.SchemeLayering,
		transport.SchemeFlexPass, transport.SchemeHoma, transport.SchemePHost,
		transport.SchemeNaive, transport.SchemeOWF,
		transport.SchemeFlexPassAltQ, transport.SchemeFlexPassRC3,
	} {
		if !have[want] {
			t.Errorf("built-in scheme %q not registered (have %v)", want, names)
		}
	}
}

func TestNewSchemeUnknown(t *testing.T) {
	_, err := transport.NewScheme("no-such-scheme", &transport.SchemeEnv{})
	if err == nil {
		t.Fatal("NewScheme accepted an unknown name")
	}
	if !strings.Contains(err.Error(), "no-such-scheme") ||
		!strings.Contains(err.Error(), transport.SchemeFlexPass) {
		t.Fatalf("error should name the scheme and list what is registered: %v", err)
	}
}

func TestRegisterSchemeRejectsDuplicates(t *testing.T) {
	transport.RegisterScheme("registry-test-dup", func(*transport.SchemeEnv) transport.Scheme { return nil })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	transport.RegisterScheme("registry-test-dup", func(*transport.SchemeEnv) transport.Scheme { return nil })
}

func TestSchemeEnvOptions(t *testing.T) {
	env := &transport.SchemeEnv{Options: map[string]string{
		"reactive": "reno", "on": "1", "off": "false", "no": "no",
	}}
	if env.Option("reactive") != "reno" || env.Option("missing") != "" {
		t.Fatal("Option lookup broken")
	}
	for key, want := range map[string]bool{"on": true, "off": false, "no": false, "missing": false} {
		if got := env.BoolOption(key); got != want {
			t.Errorf("BoolOption(%q) = %v, want %v", key, got, want)
		}
	}
}

func TestSchemeEnvCountersMemoized(t *testing.T) {
	env := &transport.SchemeEnv{Registry: obs.NewRegistry()}
	a := env.Counters("x")
	b := env.Counters("x")
	if a != b {
		t.Fatal("Counters not memoized per label")
	}
	if c := env.Counters("y"); c == a {
		t.Fatal("distinct labels share a counter set")
	}
	var labels []string
	env.EachCounters(func(l string, _ transport.Counters) { labels = append(labels, l) })
	if len(labels) != 2 || labels[0] != "x" || labels[1] != "y" {
		t.Fatalf("EachCounters order = %v, want [x y]", labels)
	}
}

// runScheme builds one registered scheme against a 3-host single-switch
// micro-fabric, runs a 64kB flow over it, and returns the FCT.
func runScheme(t *testing.T, name string) sim.Time {
	t.Helper()
	eng := sim.NewEngine(1)
	env := &transport.SchemeEnv{
		Eng:      eng,
		LinkRate: 10 * units.Gbps,
		WQ:       0.5,
		OracleWQ: 0.5,
		Spec:     topo.Spec{WQ: 0.5},
	}
	sch, err := transport.NewScheme(name, env)
	if err != nil {
		t.Fatalf("NewScheme(%q): %v", name, err)
	}
	fab := topo.SingleSwitch(eng, 3, topo.Params{
		LinkRate:  10 * units.Gbps,
		LinkDelay: 2 * sim.Microsecond,
		HostDelay: 1 * sim.Microsecond,
		SwitchBuf: 4500 * units.KB,
		BufAlpha:  0.25,
		Profile:   sch.Profile(),
	})
	var flows transport.Flows
	fl := flows.Add(&transport.Flow{
		ID:   1,
		Src:  transport.NewAgent(eng, fab.Net.Host(0), &flows),
		Dst:  transport.NewAgent(eng, fab.Net.Host(2), &flows),
		Size: 64_000,
	})
	transport.Start(sch, fl)
	if fl.Transport == "" {
		t.Errorf("scheme %q did not label the flow's transport", name)
	}
	eng.Run(500 * sim.Millisecond)
	if !fl.Completed {
		t.Fatalf("scheme %q: flow incomplete after 500ms", name)
	}
	if fl.RxBytes != fl.Size {
		t.Fatalf("scheme %q: RxBytes = %d, want %d", name, fl.RxBytes, fl.Size)
	}
	return fl.FCT()
}

// TestEveryRegisteredSchemeRuns is the registry's contract test: every
// scheme in the registry must compose into a working transport on a
// micro-fabric, deterministically.
func TestEveryRegisteredSchemeRuns(t *testing.T) {
	for _, name := range transport.SchemeNames() {
		if name == "registry-test-dup" { // from the duplicate-registration test
			continue
		}
		name := name
		t.Run(name, func(t *testing.T) {
			fct := runScheme(t, name)
			if fct <= 0 {
				t.Fatalf("FCT = %v, want > 0", fct)
			}
			if again := runScheme(t, name); again != fct {
				t.Fatalf("non-deterministic: FCT %v then %v", fct, again)
			}
		})
	}
}

// orderScheme records which half of a flow was started when.
type orderScheme struct{ calls []string }

func (s *orderScheme) Profile() topo.PortProfile        { return nil }
func (s *orderScheme) StartSender(fl *transport.Flow)   { s.calls = append(s.calls, "sender") }
func (s *orderScheme) StartReceiver(fl *transport.Flow) { s.calls = append(s.calls, "receiver") }

// TestStartReceiverFirst pins transport.Start's order: the receiving
// endpoint is registered before the sender can put a frame on the wire.
func TestStartReceiverFirst(t *testing.T) {
	s := &orderScheme{}
	transport.Start(s, &transport.Flow{ID: 1})
	if len(s.calls) != 2 || s.calls[0] != "receiver" || s.calls[1] != "sender" {
		t.Fatalf("Start called %v, want [receiver sender]", s.calls)
	}
}

// flowOutcome is what a flow's record holds at the end of a run.
type flowOutcome struct {
	Completed                                   bool
	FCT                                         sim.Time
	Timeouts, Retransmits, RedundantSegs        int
	ProRetx, CreditsWasted, CreditsGranted      int
	RxBytes, RxBytesPro, RxBytesRe, MaxReorderB int64
}

// runShared starts the given flows on one instance of the named scheme
// over a 4-host single switch: flow 1 from host 0 to 1 at 0, flow 2 from
// host 2 to 3 at 5 ms. The switch port to host 1 drops everything for the
// first 2 ms, so flow 1 loses its first window (and credit request) and
// times out at 4 ms, before flow 2 starts; flow 2 shares no port with it.
func runShared(t *testing.T, name string, ids ...uint64) map[uint64]flowOutcome {
	t.Helper()
	eng := sim.NewEngine(1)
	env := &transport.SchemeEnv{
		Eng:      eng,
		LinkRate: 10 * units.Gbps,
		WQ:       0.5,
		OracleWQ: 0.5,
		Spec:     topo.Spec{WQ: 0.5},
	}
	sch, err := transport.NewScheme(name, env)
	if err != nil {
		t.Fatalf("NewScheme(%q): %v", name, err)
	}
	fab := topo.SingleSwitch(eng, 4, topo.Params{
		LinkRate:  10 * units.Gbps,
		LinkDelay: 2 * sim.Microsecond,
		HostDelay: 1 * sim.Microsecond,
		SwitchBuf: 4500 * units.KB,
		BufAlpha:  0.25,
		Profile:   sch.Profile(),
	})
	for _, p := range fab.Net.PortsTo(fab.Net.Host(1).NodeID()) {
		p.SetLossRate(1)
		eng.At(2*sim.Millisecond, func() { p.SetLossRate(0) })
	}
	var flows transport.Flows
	ag := make([]*transport.Agent, 4)
	for i := range ag {
		ag[i] = transport.NewAgent(eng, fab.Net.Host(i), &flows)
	}
	for _, id := range ids {
		src, at := 2*int(id-1), sim.Time(id-1)*5*sim.Millisecond
		fl := flows.Add(&transport.Flow{ID: id, Src: ag[src], Dst: ag[src+1], Size: 64_000, Start: at})
		eng.At(at, func() { transport.Start(sch, fl) })
	}
	eng.Run(500 * sim.Millisecond)
	out := map[uint64]flowOutcome{}
	for _, fl := range flows {
		if fl != nil {
			out[fl.ID] = flowOutcome{fl.Completed, fl.FCT(), fl.Timeouts, fl.Retransmits, fl.RedundantSegs,
				fl.ProRetx, fl.CreditsWasted, fl.CreditsGranted, fl.RxBytes, fl.RxBytesPro, fl.RxBytesRe, fl.MaxReorderB}
		}
	}
	return out
}

// TestSchemeConfigShared holds that a scheme's config, built once and
// shared by pointer by every endpoint it starts, carries nothing from one
// flow to another: a flow that timed out and one that did not, run side
// by side on one scheme instance, each end exactly as they do alone.
func TestSchemeConfigShared(t *testing.T) {
	for _, name := range transport.SchemeNames() {
		if name == "registry-test-dup" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			both := runShared(t, name, 1, 2)
			// Homa-lite has no loss recovery: its flow 1 never finishes.
			if name != transport.SchemeHoma && (both[1].Timeouts == 0 || !both[1].Completed) {
				t.Fatalf("flow 1 did not time out and recover: %+v", both[1])
			}
			if both[2].Timeouts != 0 || !both[2].Completed {
				t.Fatalf("flow 2 timed out or did not finish: %+v", both[2])
			}
			for id := uint64(1); id <= 2; id++ {
				if alone := runShared(t, name, id)[id]; alone != both[id] {
					t.Errorf("flow %d alone %+v, next to the other %+v", id, alone, both[id])
				}
			}
		})
	}
}
