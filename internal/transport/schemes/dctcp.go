package schemes

import (
	"flexpass/internal/topo"
	"flexpass/internal/transport"
	"flexpass/internal/transport/dctcp"
)

// newDCTCP composes plain legacy DCTCP: data and ACKs in the legacy
// queue, the plain two-queue switch profile.
func newDCTCP(env *transport.SchemeEnv) transport.Scheme {
	cfg := dctcp.LegacyConfig()
	cfg.Stats = env.Counters(transport.SchemeDCTCP)
	cfg.Trace = env.Trace
	return &scheme{
		profile: func() topo.PortProfile {
			return topo.PlainProfile(env.Spec.Defaults().LegacyECN)
		},
		startSender: func(fl *transport.Flow) {
			fl.Transport = transport.SchemeDCTCP
			fl.Legacy = true
			dctcp.StartSender(env.Eng, fl, &cfg)
		},
		startReceiver: func(fl *transport.Flow) {
			dctcp.StartReceiver(env.Eng, fl, &cfg)
		},
	}
}
