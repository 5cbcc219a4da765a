package schemes

import (
	"flexpass/internal/netem"
	"flexpass/internal/topo"
	"flexpass/internal/transport"
	"flexpass/internal/transport/homa"
)

// newHoma composes the Homa-lite receiver-driven baseline on the FlexPass
// queue layout, remapped away from the tiny rate-limited credit queue:
// data and grants in Q1, nothing in Q0. (Homa-lite has no loss recovery;
// it is a throughput baseline.)
func newHoma(env *transport.SchemeEnv) transport.Scheme {
	cfg := homa.DefaultConfig(env.LinkRate)
	cfg.UnschedClass = netem.ClassFlex
	cfg.SchedClass = netem.ClassLegacy
	cfg.GrantClass = netem.ClassFlex
	cfg.Stats = env.Counters(transport.SchemeHoma)
	cfg.Trace = env.Trace
	return &scheme{
		profile: func() topo.PortProfile { return topo.FlexPassProfile(env.Spec) },
		startSender: func(fl *transport.Flow) {
			fl.Transport = transport.SchemeHoma
			homa.StartSender(env.Eng, fl, &cfg)
		},
		startReceiver: func(fl *transport.Flow) {
			homa.StartReceiver(env.Eng, fl, &cfg)
		},
	}
}
