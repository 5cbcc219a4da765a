package faults

import (
	"cmp"
	"fmt"
	"path"
	"slices"
	"strings"
	"sync"

	"flexpass/internal/netem"
	"flexpass/internal/obs"
	"flexpass/internal/sim"
)

// Applied is the execution log of a plan: every action as it actually
// fired — the instant, the kind, the resolved port name (not the
// pattern) and the kind-specific magnitude — logged as its artifact
// line as the scheduled timers fire. Engage and clear are logged
// separately (an Event with End yields two actions per matched port).
// It doubles as the telemetry bridge: Register exposes the running
// action count. Sharded runs fire timers from several shard goroutines,
// so the log is mutex-guarded.
type Applied struct {
	Plan *Plan

	mu      sync.Mutex
	actions []obs.FaultData
}

// Len returns the number of actions fired so far.
func (a *Applied) Len() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.actions)
}

// Apply resolves every event's link pattern against the network's port
// names and schedules the engage (and, for intervals with an End, the
// clear) on the engine. It must be called before eng.Run, at time zero.
// A pattern matching no port returns *UnknownLinkError; an invalid plan
// returns *PlanError. The returned log fills in as the run executes.
//
// Determinism: ports are resolved in Network.EachPort order and events
// in plan order, so the timer creation sequence — and therefore the
// engine's event tie-break order — is a pure function of (plan, topo).
func Apply(p *Plan, eng *sim.Engine, net *netem.Network) (*Applied, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	a := &Applied{Plan: p}
	// All fault timers — and anything their engage/clear closures
	// schedule — attribute to the "faults" component. A port always
	// schedules on its own engine so sharded runs flip port state from
	// the goroutine that owns it; single-engine runs resolve every port
	// to eng and behave exactly as before.
	restore := map[*sim.Engine]sim.Component{}
	faultsComp := func(e *sim.Engine) *sim.Engine {
		if _, ok := restore[e]; !ok {
			restore[e] = e.SetComponent(e.Component("faults"))
		}
		return e
	}
	defer func() {
		for e, prev := range restore {
			e.SetComponent(prev)
		}
	}()
	faultsComp(eng)
	for i := range p.Events {
		ev := &p.Events[i]
		ports := matchPorts(net, ev.Link)
		if len(ports) == 0 {
			return nil, &UnknownLinkError{Pattern: ev.Link}
		}
		for _, port := range ports {
			port := port
			pe := eng
			if e := port.Engine(); e != nil {
				pe = e
			}
			faultsComp(pe)
			engage, clear, val := actions(ev, port)
			at := ev.At.Time()
			pe.At(at, func() {
				engage()
				a.record(at, ev.Kind, port, val)
			})
			if ev.End != 0 && clear != nil {
				end := ev.End.Time()
				kind := clearKind(ev.Kind)
				pe.At(end, func() {
					clear()
					a.record(end, kind, port, 0)
				})
			}
		}
	}
	return a, nil
}

// matchPorts resolves a glob (or exact name) against every port.
func matchPorts(net *netem.Network, pattern string) []*netem.Port {
	var out []*netem.Port
	net.EachPort(func(p *netem.Port) {
		if ok, _ := path.Match(pattern, p.Name()); ok {
			out = append(out, p)
		}
	})
	return out
}

// actions builds the engage/clear closures for one event on one port.
// val is the magnitude recorded with the engage action.
func actions(ev *Event, p *netem.Port) (engage, clear func(), val float64) {
	switch ev.Kind {
	case LinkDown:
		return func() { p.SetDown(true) }, func() { p.SetDown(false) }, 0
	case LinkUp:
		return func() { p.SetDown(false) }, nil, 0
	case RateDegrade:
		return func() { p.SetRateFraction(ev.Fraction) },
			func() { p.SetRateFraction(1) }, ev.Fraction
	case RateRestore:
		return func() { p.SetRateFraction(1) }, nil, 0
	case CreditLoss:
		return func() { p.SetCreditLossRate(ev.Rate) },
			func() { p.SetCreditLossRate(0) }, ev.Rate
	case BurstLoss:
		g := ev.Model()
		return func() { p.SetGilbertElliott(g) },
			func() { p.SetGilbertElliott(netem.GilbertElliott{}) }, g.LossBad
	}
	panic(fmt.Sprintf("faults: unreachable kind %q", ev.Kind)) // Validate gates kinds
}

// Model returns the Gilbert–Elliott parameters a BurstLoss event
// installs: Rate alone means flat Bernoulli loss; otherwise LossBad
// (default 1), LossGood (default 0), and mean burst/gap lengths BadLen
// (default 8) and GoodLen (default 200) whose inverses become the
// per-packet transition probabilities.
func (ev *Event) Model() netem.GilbertElliott {
	if ev.Rate > 0 && ev.LossBad == 0 && ev.BadLen == 0 && ev.GoodLen == 0 {
		return netem.Bernoulli(ev.Rate)
	}
	lossBad, badLen, goodLen := ev.LossBad, ev.BadLen, ev.GoodLen
	if lossBad == 0 {
		lossBad = 1
	}
	if badLen == 0 {
		badLen = 8
	}
	if goodLen == 0 {
		goodLen = 200
	}
	return netem.GilbertElliott{
		PGoodBad: 1 / goodLen,
		PBadGood: 1 / badLen,
		LossGood: ev.LossGood,
		LossBad:  lossBad,
	}
}

// clearKind maps an interval kind to the kind logged for its clear.
func clearKind(k Kind) Kind {
	switch k {
	case LinkDown:
		return LinkUp
	case RateDegrade:
		return RateRestore
	default:
		// Loss intervals clear back to "no model"; log under the same
		// kind with value 0 so the pair is self-describing.
		return k
	}
}

// record appends one fired action to the log.
func (a *Applied) record(at sim.Time, kind Kind, p *netem.Port, val float64) {
	a.mu.Lock()
	a.actions = append(a.actions, obs.FaultData{AtPs: int64(at), Kind: string(kind), Link: p.Name(), Value: val})
	a.mu.Unlock()
}

// Register exposes the plan's execution progress in the stats registry
// under entity "faults": the number of actions fired so far.
func (a *Applied) Register(reg *obs.Registry) {
	if reg == nil || a == nil {
		return
	}
	reg.CounterFunc("faults", "actions_applied", func() int64 {
		return int64(a.Len())
	})
}

// Export returns a sorted copy of the fired-action log. Sharded runs
// append from several goroutines in nondeterministic interleave, so the
// sort key covers the whole line — (time, kind, link, value) — making the
// artifact a pure function of what fired, not of goroutine scheduling.
func (a *Applied) Export() []obs.FaultData {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	out := append(make([]obs.FaultData, 0, len(a.actions)), a.actions...)
	a.mu.Unlock()
	slices.SortStableFunc(out, func(x, y obs.FaultData) int {
		return cmp.Or(cmp.Compare(x.AtPs, y.AtPs), strings.Compare(x.Kind, y.Kind),
			strings.Compare(x.Link, y.Link), cmp.Compare(x.Value, y.Value))
	})
	return out
}
