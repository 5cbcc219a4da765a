package schemes

import (
	"flexpass/internal/netem"
	"flexpass/internal/topo"
	"flexpass/internal/transport"
	"flexpass/internal/transport/phost"
)

// phostScheme carries per-destination token arbiters: pHost serialises
// grants per receiver downlink, so each destination host gets one arbiter
// shared by every flow that lands on it.
type phostScheme struct {
	env      *transport.SchemeEnv
	cfg      *phost.Config
	arbiters map[*netem.Host]*phost.Arbiter
}

// newPHost composes the pHost receiver-driven baseline on the FlexPass
// queue layout.
func newPHost(env *transport.SchemeEnv) transport.Scheme {
	cfg := phost.DefaultConfig()
	cfg.Stats = env.Counters(transport.SchemePHost)
	cfg.Trace = env.Trace
	return &phostScheme{
		env:      env,
		cfg:      &cfg,
		arbiters: make(map[*netem.Host]*phost.Arbiter),
	}
}

func (s *phostScheme) Profile() topo.PortProfile {
	return topo.FlexPassProfile(s.env.Spec)
}

// arbiter returns (creating on first use) the destination host's grant
// arbiter. Only the receiver half resolves arbiters, so each arbiter lives
// on the engine of the downlink it serialises grants for.
func (s *phostScheme) arbiter(fl *transport.Flow) *phost.Arbiter {
	arb := s.arbiters[fl.Dst.Host]
	if arb == nil {
		arb = phost.NewArbiter(s.env.Eng, fl.Dst.Host, s.env.LinkRate)
		s.arbiters[fl.Dst.Host] = arb
	}
	return arb
}

// StartSender labels the flow and begins its send side.
func (s *phostScheme) StartSender(fl *transport.Flow) {
	fl.Transport = transport.SchemePHost
	phost.StartSender(s.env.Eng, fl, s.cfg)
}

// StartReceiver wires the receive side onto the destination host's
// arbiter.
func (s *phostScheme) StartReceiver(fl *transport.Flow) {
	phost.StartReceiver(s.env.Eng, fl, s.arbiter(fl), s.cfg)
}
