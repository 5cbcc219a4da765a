package schemes

import (
	"flexpass/internal/netem"
	"flexpass/internal/topo"
	"flexpass/internal/transport"
	"flexpass/internal/transport/core"
	"flexpass/internal/transport/flexpass"
)

// flexCfg builds the FlexPass connection config from the env's w_q and
// scheme options, billing to the shared "flexpass" counter set (the AltQ
// and RC3 ablations are the same transport under different knobs) plus
// its per-sub-flow rx_bytes_pro and rx_bytes_re.
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

func flexScheme(env *transport.SchemeEnv, cfg *flexpass.Config, profile func() topo.PortProfile) transport.Scheme {
	return &scheme{
		profile: profile,
		startSender: func(fl *transport.Flow) {
			fl.Transport = transport.SchemeFlexPass
			flexpass.StartSender(env.Eng, fl, cfg)
		},
		startReceiver: func(fl *transport.Flow) {
			flexpass.StartReceiver(env.Eng, fl, cfg)
		},
	}
}

// newFlexPass composes the paper's design: three-queue layout, dual
// sub-flow transport.
func newFlexPass(env *transport.SchemeEnv) transport.Scheme {
	return flexScheme(env, flexCfg(env), func() topo.PortProfile {
		return topo.FlexPassProfile(env.Spec)
	})
}

// newFlexPassAltQ composes the §4.3 queueing ablation: the reactive
// sub-flow rides the legacy queue instead of Q1.
func newFlexPassAltQ(env *transport.SchemeEnv) transport.Scheme {
	cfg := flexCfg(env)
	cfg.ReClass = netem.ClassLegacy
	return flexScheme(env, cfg, func() topo.PortProfile {
		return topo.AltQueueProfile(env.Spec)
	})
}

// newFlexPassRC3 composes the §4.3 flow-splitting ablation: RC3-style
// tail-first reactive transmission.
func newFlexPassRC3(env *transport.SchemeEnv) transport.Scheme {
	cfg := flexCfg(env)
	cfg.RC3Split = true
	return flexScheme(env, cfg, func() topo.PortProfile {
		return topo.FlexPassProfile(env.Spec)
	})
}
