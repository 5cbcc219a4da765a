// Package schemes is the closed table of the schemes a run can name: the
// plain transports, the §6.2 deployment schemes (naive, oWF, LY,
// FlexPass) and the §4.3 ablations (AltQ, RC3). It is the one place that
// couples a transport implementation to its switch queue profile, flow
// label and per-scheme parameters; the transports stay profile-agnostic
// and the harness, testbed and cmd layers compose by name through New.
package schemes

import (
	"fmt"
	"slices"
	"strings"

	"flexpass/internal/netem"
	"flexpass/internal/sim"
	"flexpass/internal/topo"
	"flexpass/internal/transport"
	"flexpass/internal/transport/core"
	"flexpass/internal/transport/dctcp"
	"flexpass/internal/transport/expresspass"
	"flexpass/internal/transport/flexpass"
	"flexpass/internal/transport/homa"
	"flexpass/internal/transport/phost"
)

// Scheme is one scheme built for one plane: the label and legacy flag it
// stamps on the flows it starts, the switch queue layout it deploys, and
// its transport's two endpoint halves. The halves share nothing but the
// wire, so each may run on its own engine: the sender half on the scheme
// built for the source host's plane, the receiver half on the
// destination host's.
type Scheme struct {
	Label   string // Flow.Transport
	Legacy  bool   // Flow.Legacy
	Profile topo.PortProfile
	Halves  Halves
}

// Halves starts one endpoint of a flow on eng; each transport's *Config
// is one.
type Halves interface {
	StartSender(eng *sim.Engine, fl *transport.Flow)
	StartReceiver(eng *sim.Engine, fl *transport.Flow)
}

// StartSender labels fl (Transport, Legacy) and begins its send side. It
// is the only half that writes the flow's send-side fields.
func (s *Scheme) StartSender(eng *sim.Engine, fl *transport.Flow) {
	fl.Transport, fl.Legacy = s.Label, s.Legacy
	s.Halves.StartSender(eng, fl)
}

// StartReceiver wires fl's receive side only.
func (s *Scheme) StartReceiver(eng *sim.Engine, fl *transport.Flow) {
	s.Halves.StartReceiver(eng, fl)
}

// table builds each scheme by name. "expresspass" and "naive" build the
// same scheme; naive and oWF bill to the "expresspass" counter set and
// the ablations to "flexpass".
var table = map[string]func(env *transport.SchemeEnv) Scheme{
	// Plain legacy DCTCP: data and ACKs in the legacy queue.
	transport.SchemeDCTCP: func(env *transport.SchemeEnv) Scheme {
		cfg := dctcp.LegacyConfig()
		cfg.Stats = env.Counters(transport.SchemeDCTCP)
		cfg.Trace = env.Trace
		return Scheme{Label: transport.SchemeDCTCP, Legacy: true,
			Profile: topo.PlainProfile(env.Spec.Defaults().LegacyECN), Halves: &cfg}
	},
	transport.SchemeExpressPass: naive,
	transport.SchemeNaive:       naive,
	// oWF: ExpressPass whose credit rate and queue weights follow the
	// measured upgraded-traffic share.
	transport.SchemeOWF: func(env *transport.SchemeEnv) Scheme {
		wq := legacyWQ(env.OracleWQ)
		cfg := expressCfg(env, transport.SchemeExpressPass, wq)
		ospec := env.Spec
		ospec.WQ = wq
		return Scheme{Label: transport.SchemeExpressPass, Profile: topo.OWFProfile(ospec), Halves: cfg}
	},
	// LY (ExpressPass+ [45]): full-rate credits gated by a DCTCP-adjusted
	// window, data sharing the legacy queue. A credit the window has no
	// room for is wasted; data is ECN-capable so the shared queue's marks
	// reach the window. Its flows trace as "expresspass".
	transport.SchemeLayering: func(env *transport.SchemeEnv) Scheme {
		cfg := expressCfg(env, transport.SchemeLayering, 1)
		cfg.Layered, cfg.DataECN = true, true
		return Scheme{Label: transport.SchemeLayering, Profile: topo.LayeringProfile(env.Spec), Halves: cfg}
	},
	// The paper's design: three-queue layout, dual sub-flow transport.
	transport.SchemeFlexPass: func(env *transport.SchemeEnv) Scheme {
		return Scheme{Label: transport.SchemeFlexPass, Profile: topo.FlexPassProfile(env.Spec), Halves: flexCfg(env)}
	},
	// The queueing ablation: the reactive sub-flow rides the legacy queue
	// instead of Q1.
	transport.SchemeFlexPassAltQ: func(env *transport.SchemeEnv) Scheme {
		cfg := flexCfg(env)
		cfg.ReClass = netem.ClassLegacy
		return Scheme{Label: transport.SchemeFlexPass, Profile: topo.AltQueueProfile(env.Spec), Halves: cfg}
	},
	// The flow-splitting ablation: RC3-style tail-first reactive
	// transmission.
	transport.SchemeFlexPassRC3: func(env *transport.SchemeEnv) Scheme {
		cfg := flexCfg(env)
		cfg.RC3Split = true
		return Scheme{Label: transport.SchemeFlexPass, Profile: topo.FlexPassProfile(env.Spec), Halves: cfg}
	},
	// Homa-lite on the FlexPass layout, remapped away from the tiny
	// rate-limited credit queue: data and grants in Q1, nothing in Q0. It
	// has no loss recovery; it is a throughput baseline.
	transport.SchemeHoma: func(env *transport.SchemeEnv) Scheme {
		cfg := homa.DefaultConfig(env.LinkRate)
		cfg.UnschedClass = netem.ClassFlex
		cfg.SchedClass = netem.ClassLegacy
		cfg.GrantClass = netem.ClassFlex
		cfg.Stats = env.Counters(transport.SchemeHoma)
		cfg.Trace = env.Trace
		return Scheme{Label: transport.SchemeHoma, Profile: topo.FlexPassProfile(env.Spec), Halves: &cfg}
	},
	// pHost on the FlexPass layout, one token arbiter per receiver.
	transport.SchemePHost: func(env *transport.SchemeEnv) Scheme {
		cfg := phost.DefaultConfig(env.LinkRate)
		cfg.Stats = env.Counters(transport.SchemePHost)
		cfg.Trace = env.Trace
		return Scheme{Label: transport.SchemePHost, Profile: topo.FlexPassProfile(env.Spec), Halves: &cfg}
	},
}

// New builds the named scheme for env's plane. An unknown name's error
// lists the known ones.
func New(name string, env *transport.SchemeEnv) (*Scheme, error) {
	build, ok := table[name]
	if !ok {
		return nil, fmt.Errorf("schemes: unknown scheme %q (known: %s)", name, strings.Join(Names(), ", "))
	}
	s := build(env)
	return &s, nil
}

// Names lists every scheme name, sorted.
func Names() []string { return sortedKeys(table) }

// sortedKeys lists m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// naive is plain ExpressPass: full-rate credits sharing the legacy queue.
func naive(env *transport.SchemeEnv) Scheme {
	return Scheme{Label: transport.SchemeExpressPass, Profile: topo.NaiveProfile(env.Spec),
		Halves: expressCfg(env, transport.SchemeExpressPass, 1)}
}

// expressCfg builds the ExpressPass connection config at the given credit
// weight, billing to label's counter set.
func expressCfg(env *transport.SchemeEnv, label string, wq float64) *expresspass.Config {
	cfg := expresspass.DefaultConfig(
		core.DefaultPacerConfig(netem.CreditRateFor(env.LinkRate, wq)))
	st := env.Counters(label)
	cfg.Stats = st
	cfg.Trace = env.Trace
	cfg.Pacer.Trace, cfg.Pacer.Issued = env.Trace, st.CreditsIssued
	return &cfg
}

// options is every scheme option a scheme of the table reads — all of
// them FlexPass's, read by flexCfg below — with the values it accepts.
var options = map[string][]string{
	transport.OptDisableProRetx: boolValues,
	transport.OptReactive:       {string(flexpass.ReactiveDCTCP), string(flexpass.ReactiveReno)},
	transport.OptPreCreditOnly:  boolValues,
}

// boolValues are the spellings SchemeEnv.BoolOption reads as a flag.
var boolValues = []string{"1", "true", "yes", "0", "false", "no"}

// CheckOptions rejects an option map that names a key no scheme reads,
// or a value its key does not accept; the error lists the known keys or
// the accepted values. A known key that a given scheme does not read is
// legal: a sweep crosses every option map with every scheme.
func CheckOptions(opts map[string]string) error {
	for _, k := range sortedKeys(opts) {
		accepted, ok := options[k]
		if !ok {
			return fmt.Errorf("unknown scheme option %q (known: %s)", k, strings.Join(sortedKeys(options), ", "))
		}
		if !slices.Contains(accepted, opts[k]) {
			return fmt.Errorf("scheme option %s=%q: want one of %s", k, opts[k], strings.Join(accepted, ", "))
		}
	}
	return nil
}

// flexCfg builds the FlexPass connection config from the env's w_q and
// scheme options, billing to the shared "flexpass" counter set plus its
// per-sub-flow rx_bytes_pro and rx_bytes_re, registered in that order.
func flexCfg(env *transport.SchemeEnv) *flexpass.Config {
	cfg := flexpass.DefaultConfig(
		core.DefaultPacerConfig(netem.CreditRateFor(env.LinkRate, legacyWQ(env.WQ))))
	cfg.DisableProRetx = env.BoolOption(transport.OptDisableProRetx)
	cfg.Reactive = flexpass.ReactiveCC(env.Option(transport.OptReactive))
	cfg.PreCreditOnly = env.BoolOption(transport.OptPreCreditOnly)
	st := env.Counters(transport.SchemeFlexPass)
	cfg.Stats = st
	ent := "transport/" + transport.SchemeFlexPass
	cfg.RxPro, cfg.RxRe = env.Registry.Counter(ent, "rx_bytes_pro"), env.Registry.Counter(ent, "rx_bytes_re")
	cfg.Trace = env.Trace
	cfg.Pacer.Trace, cfg.Pacer.Issued = env.Trace, st.CreditsIssued
	return &cfg
}

// legacyWQ falls back to the paper's default weight when the env leaves
// w_q unset (an env built by hand, as the transport tests build theirs).
func legacyWQ(wq float64) float64 {
	if wq == 0 {
		return 0.5
	}
	return wq
}
