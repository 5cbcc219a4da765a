package schemes

import (
	"flexpass/internal/netem"
	"flexpass/internal/topo"
	"flexpass/internal/transport"
	"flexpass/internal/transport/core"
	"flexpass/internal/transport/expresspass"
	"flexpass/internal/transport/layering"
)

// expressCfg builds the ExpressPass connection config at the given credit
// weight, billing to the shared "expresspass" counter set (naive and oWF
// are the same transport under different queue layouts and credit rates).
func expressCfg(env *transport.SchemeEnv, wq float64) *expresspass.Config {
	cfg := expresspass.DefaultConfig(
		core.DefaultPacerConfig(netem.CreditRateFor(env.LinkRate, wq)))
	st := env.Counters(transport.SchemeExpressPass)
	cfg.Stats = st
	cfg.Trace = env.Trace
	cfg.Pacer.Trace, cfg.Pacer.Issued = env.Trace, st.CreditsIssued
	return &cfg
}

// newExpressPass composes plain ExpressPass — full-rate credits sharing
// the legacy queue. Registered both as "expresspass" and as the §6.2
// "naive" deployment scheme.
func newExpressPass(env *transport.SchemeEnv) transport.Scheme {
	cfg := expressCfg(env, 1.0)
	return &scheme{
		profile: func() topo.PortProfile { return topo.NaiveProfile(env.Spec) },
		startSender: func(fl *transport.Flow) {
			fl.Transport = transport.SchemeExpressPass
			expresspass.StartSender(env.Eng, fl, cfg)
		},
		startReceiver: func(fl *transport.Flow) {
			expresspass.StartReceiver(env.Eng, fl, cfg)
		},
	}
}

// newOWF composes the oracle weighted-fair scheme: ExpressPass whose
// credit rate and queue weights follow the measured upgraded-traffic
// share (env.OracleWQ).
func newOWF(env *transport.SchemeEnv) transport.Scheme {
	wq := legacyWQ(env.OracleWQ)
	cfg := expressCfg(env, wq)
	return &scheme{
		profile: func() topo.PortProfile {
			ospec := env.Spec
			ospec.WQ = wq
			return topo.OWFProfile(ospec)
		},
		startSender: func(fl *transport.Flow) {
			fl.Transport = transport.SchemeExpressPass
			expresspass.StartSender(env.Eng, fl, cfg)
		},
		startReceiver: func(fl *transport.Flow) {
			expresspass.StartReceiver(env.Eng, fl, cfg)
		},
	}
}

// newLayering composes the LY baseline: window-gated ExpressPass in the
// shared queue (see the layering package).
func newLayering(env *transport.SchemeEnv) transport.Scheme {
	cfg := layering.Config(
		core.DefaultPacerConfig(netem.CreditRateFor(env.LinkRate, 1.0)))
	st := env.Counters(transport.SchemeLayering)
	cfg.Stats = st
	cfg.Trace = env.Trace
	cfg.Pacer.Trace, cfg.Pacer.Issued = env.Trace, st.CreditsIssued
	return &scheme{
		profile: func() topo.PortProfile { return topo.LayeringProfile(env.Spec) },
		startSender: func(fl *transport.Flow) {
			fl.Transport = transport.SchemeLayering
			expresspass.StartSender(env.Eng, fl, &cfg)
		},
		startReceiver: func(fl *transport.Flow) {
			expresspass.StartReceiver(env.Eng, fl, &cfg)
		},
	}
}
