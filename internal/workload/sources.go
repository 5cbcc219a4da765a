package workload

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"flexpass/internal/sim"
)

// This file generates each source kind straight from its Source and the
// Env: one rate calibration (Source.rate), one arrival loop, and per
// kind the spacing of arrivals and what one arrival emits.

// rate is the source's arrival rate against env: flows/s for a
// background, events/s for incast and jobs/s for rpc. An explicit Rate
// wins. Otherwise a background's load (0 inherits env.Load) is offered
// to the ToR uplinks, corrected for the pairs that stay in one rack; an
// incast's volume is Fraction of the total over the scenario's nominal
// background, env.Load of the capacity, whatever else the plan
// composes; and an rpc's volume is its load of the capacity. For onoff
// the rate is the long-run mean, not the ON-period peak.
//
// boost is the envelope maximum a modulated source generates at before
// thinning. A background multiplies its load by it before calibrating,
// incast and rpc their rate after: TestSourceFlowsPinned holds each to
// that float order.
func (s *Source) rate(env Env, boost float64) float64 {
	load := s.Load
	if load == 0 {
		load = env.Load
	}
	switch {
	case s.Rate > 0:
		return s.Rate * boost
	case s.Kind == SrcIncast:
		// fg = fraction × (fg + bg), so fg = bg × fraction / (1 − fraction).
		bg := env.Load * float64(env.UplinkCapacity) / 8
		perEvent := float64(env.Hosts-1) * float64(s.flowsPerSender()) * float64(s.FlowSize)
		return bg * s.Fraction / (1 - s.Fraction) / perEvent * boost
	case s.Kind == SrcRPC:
		resp := float64(s.ResponseSize)
		if s.respCDF != nil {
			resp = s.respCDF.Mean()
		}
		perJob := float64(s.Fanout) * (float64(s.RequestSize) + resp)
		return load * float64(env.UplinkCapacity) / 8 / perJob * boost
	}
	bytesPerSec := load * boost * float64(env.UplinkCapacity) / 8
	return bytesPerSec / (s.cdf.Mean() * crossProb(env.Hosts, env.RackOf))
}

// flowsPerSender is an incast event's flows per sending host, 4 unless
// set.
func (s *Source) flowsPerSender() int {
	if s.FlowsPerSender == 0 {
		return 4
	}
	return s.FlowsPerSender
}

// crossProb returns the probability a uniformly random src/dst pair spans
// two racks: 1 without a rack map, and 1 when every host shares one rack
// (no pair crosses, so no correction applies).
func crossProb(hosts int, rackOf []int) float64 {
	if rackOf == nil || hosts < 2 {
		return 1
	}
	perRack := make(map[int]int)
	for _, r := range rackOf[:hosts] {
		perRack[r]++
	}
	same := 0.0
	for _, n := range perRack {
		same += float64(n) * float64(n-1)
	}
	if cross := 1 - same/(float64(hosts)*float64(hosts-1)); cross > 0 {
		return cross
	}
	return 1
}

// generate produces one source's flow list, sorted by arrival time and
// thinned by its modulation envelope. Arrivals are Poisson at rate, but
// onoff's come only inside exponential ON periods and lognormal's are
// spaced by lognormal gaps. Each background arrival is one flow between
// a random host pair, sized by the CDF; an incast arrival is an event,
// an rpc arrival a job (incastEvent, rpcJob). Every draw comes from r
// in that order, and thinning draws after all of them.
func (s *Source) generate(env Env, r *rand.Rand, nextCoflow *uint64) ([]FlowSpec, error) {
	switch s.Kind {
	case SrcTrace:
		if s.traceFlows == nil {
			return nil, errors.New("unresolved trace source (plan not loaded via ParsePlanFile/Resolve)")
		}
		// Replayed verbatim: no RNG draws, no thinning.
		return append([]FlowSpec(nil), s.traceFlows...), nil
	case SrcRPC:
		if s.Fanout > env.Hosts-1 {
			return nil, fmt.Errorf("fanout %d exceeds hosts-1 (%d)", s.Fanout, env.Hosts-1)
		}
	}
	ev := envelope{mods: s.Modulate, horizon: env.Duration}
	rate := s.rate(env, ev.max())
	grouped := s.Kind == SrcIncast || s.Kind == SrcRPC
	if grouped && rate <= 0 {
		return nil, nil
	}
	horizon := env.Duration.Seconds()
	next := func(t float64) float64 { return t + r.ExpFloat64()/rate }
	switch s.Kind {
	case SrcOnOff:
		next = onOff(r, rate, s.On.Time().Seconds(), s.Off.Time().Seconds(), horizon)
	case SrcLognormal:
		// The mean gap exp(mu + σ²/2) is exactly 1/rate.
		mu := math.Log(1/rate) - s.Sigma*s.Sigma/2
		next = func(t float64) float64 { return t + math.Exp(mu+s.Sigma*r.NormFloat64()) }
	}
	var flows []FlowSpec
	for t := next(0); t < horizon; t = next(t) {
		at := sim.Time(t * float64(sim.Second))
		switch s.Kind {
		case SrcIncast:
			flows = s.incastEvent(flows, env.Hosts, at, r)
		case SrcRPC:
			flows = s.rpcJob(flows, env.Hosts, at, r, nextCoflow)
		default:
			src := r.Intn(env.Hosts)
			dst := otherHost(r, env.Hosts, src)
			flows = append(flows, FlowSpec{Src: src, Dst: dst, Size: s.cdf.Sample(r), At: at})
		}
	}
	if s.Kind == SrcIncast && s.Coflow {
		tagIncastCoflows(flows, nextCoflow)
	}
	return thin(flows, ev, r, grouped), nil
}

// onOff returns the arrival spacing of a global ON/OFF envelope: ON
// periods (mean on seconds) carry Poisson arrivals at the peak rate
// mean/duty, so the long-run rate is mean; OFF periods (mean off) carry
// none. The first ON edge is drawn here, before any arrival. An arrival
// that would land past the current edge is discarded and the envelope
// switches (memorylessness makes the discard exact). It returns the
// next arrival after t, or a time at or past horizon once no arrival is
// left.
func onOff(r *rand.Rand, mean, on, off, horizon float64) func(t float64) float64 {
	peak := mean / (on / (on + off))
	isOn, edge := true, r.ExpFloat64()*on
	return func(t float64) float64 {
		for t < horizon {
			if !isOn {
				t, isOn = edge, true
				edge = t + r.ExpFloat64()*on
				continue
			}
			dt := r.ExpFloat64() / peak
			if t+dt >= edge {
				t, isOn = edge, false
				edge = t + r.ExpFloat64()*off
				continue
			}
			return t + dt
		}
		return t
	}
}

// otherHost draws a host other than h, uniformly, with one Intn draw.
func otherHost(r *rand.Rand, hosts, h int) int {
	o := r.Intn(hosts - 1)
	if o >= h {
		o++
	}
	return o
}

// incastEvent appends the §6.2 foreground event at instant at: one
// random receiver, and from every other host flowsPerSender flows of
// FlowSize bytes to it.
func (s *Source) incastEvent(flows []FlowSpec, hosts int, at sim.Time, r *rand.Rand) []FlowSpec {
	dst := r.Intn(hosts)
	for src := 0; src < hosts; src++ {
		if src == dst {
			continue
		}
		for range s.flowsPerSender() {
			flows = append(flows, FlowSpec{Src: src, Dst: dst, Size: s.FlowSize, At: at, Incast: true})
		}
	}
	return flows
}

// rpcJob appends one fan-out/fan-in job at instant at: a random root
// sends RequestSize bytes to each of Fanout distinct random workers,
// and each worker answers with ResponseSize bytes, or a ResponseCDF
// draw. All 2×Fanout flows share the next coflow ID, so the job
// completes with its slowest flow.
//
// Responses start at the job's instant alongside the requests:
// trace-style generation cannot know when a request is delivered, so
// the fan-in contends with its own fan-out (DESIGN.md §9).
func (s *Source) rpcJob(flows []FlowSpec, hosts int, at sim.Time, r *rand.Rand, nextCoflow *uint64) []FlowSpec {
	root := r.Intn(hosts)
	cf := *nextCoflow
	*nextCoflow++
	job := len(flows)
	for range s.Fanout {
		w := otherHost(r, hosts, root)
		for hasWorker(flows[job:], w) {
			w = otherHost(r, hosts, root)
		}
		resp := s.ResponseSize
		if s.respCDF != nil {
			resp = s.respCDF.Sample(r)
		}
		flows = append(flows,
			FlowSpec{Src: root, Dst: w, Size: s.RequestSize, At: at, Coflow: cf},
			FlowSpec{Src: w, Dst: root, Size: resp, At: at, Coflow: cf, Incast: true},
		)
	}
	return flows
}

// hasWorker reports whether a job's request/response pairs already
// reach worker w.
func hasWorker(job []FlowSpec, w int) bool {
	for i := 0; i < len(job); i += 2 {
		if job[i].Dst == w {
			return true
		}
	}
	return false
}

// tagIncastCoflows groups an incast source's flows into coflows: all
// flows of one event share an arrival instant (distinct events land at
// distinct Poisson times), so runs of equal At form the groups.
func tagIncastCoflows(flows []FlowSpec, nextCoflow *uint64) {
	var cur uint64
	for i := range flows {
		if i == 0 || flows[i].At != flows[i-1].At {
			cur = *nextCoflow
			*nextCoflow++
		}
		flows[i].Coflow = cur
	}
}

// thin applies the modulation envelope by rejection: each arrival unit
// survives with probability scale(t)/max(envelope). With grouped set,
// flows sharing (At, Coflow) — one incast event or one RPC job — are
// kept or dropped as a unit so coflows never lose members. Acceptance
// draws consume r strictly after the source's generation draws.
func thin(flows []FlowSpec, ev envelope, r *rand.Rand, grouped bool) []FlowSpec {
	if len(ev.mods) == 0 || len(flows) == 0 {
		return flows
	}
	max := ev.max()
	out := make([]FlowSpec, 0, len(flows))
	keep := false
	for i, f := range flows {
		if !grouped || i == 0 || f.At != flows[i-1].At || f.Coflow != flows[i-1].Coflow {
			keep = r.Float64()*max < ev.scale(f.At)
		}
		if keep {
			out = append(out, f)
		}
	}
	return out
}
