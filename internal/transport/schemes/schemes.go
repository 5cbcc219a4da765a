// Package schemes wires the built-in transports into the scheme registry
// (transport.RegisterScheme). It is the one place that couples a transport
// implementation to its switch queue profile, telemetry label, and
// per-scheme parameters; the transports themselves stay profile-agnostic
// and the harness/testbed/cmd layers compose by name only.
//
// Blank-import this package to make the built-ins available:
//
//	import _ "flexpass/internal/transport/schemes"
//
// Adding a transport is a one-package change: implement its sender and
// receiver halves, write a factory here (or in your own wiring package)
// and register it — no harness edits, and the two halves are what let any
// run place a flow's hosts on different engines.
package schemes

import (
	"flexpass/internal/topo"
	"flexpass/internal/transport"
)

func init() {
	// Plain transports.
	transport.RegisterScheme(transport.SchemeDCTCP, newDCTCP)
	transport.RegisterScheme(transport.SchemeExpressPass, newExpressPass)
	transport.RegisterScheme(transport.SchemeLayering, newLayering)
	transport.RegisterScheme(transport.SchemeFlexPass, newFlexPass)
	transport.RegisterScheme(transport.SchemeHoma, newHoma)
	transport.RegisterScheme(transport.SchemePHost, newPHost)

	// §6.2 deployment schemes and §4.3 ablations. "naive" is plain
	// ExpressPass under the legacy-shared queue layout.
	transport.RegisterScheme(transport.SchemeNaive, newExpressPass)
	transport.RegisterScheme(transport.SchemeOWF, newOWF)
	transport.RegisterScheme(transport.SchemeFlexPassAltQ, newFlexPassAltQ)
	transport.RegisterScheme(transport.SchemeFlexPassRC3, newFlexPassRC3)
}

// scheme is the generic composed transport every factory returns: a queue
// profile and the two endpoint start hooks, all closed over the run's env
// and configs.
type scheme struct {
	profile       func() topo.PortProfile
	startSender   func(fl *transport.Flow)
	startReceiver func(fl *transport.Flow)
}

func (s *scheme) Profile() topo.PortProfile        { return s.profile() }
func (s *scheme) StartSender(fl *transport.Flow)   { s.startSender(fl) }
func (s *scheme) StartReceiver(fl *transport.Flow) { s.startReceiver(fl) }

// legacyWQ falls back to the paper's default weight when the env leaves
// w_q unset (an env built by hand, as the registry tests build theirs).
func legacyWQ(wq float64) float64 {
	if wq == 0 {
		return 0.5
	}
	return wq
}
