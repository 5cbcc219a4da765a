package harness

import (
	"flexpass/internal/metrics"
	"flexpass/internal/obs"
	"flexpass/internal/sim"
	"flexpass/internal/topo"
	"flexpass/internal/transport"
	"flexpass/internal/units"
	"flexpass/internal/workload"
)

// ThroughputSeries is a set of named throughput time series (Figs 1/7/9).
type ThroughputSeries struct {
	Interval sim.Time
	Names    []string
	Series   map[string][]units.Rate
}

// TestbedSpec is the §6.1 switch configuration.
func TestbedSpec() topo.Spec {
	return topo.Spec{WQ: 0.5, FlexECN: 60 * units.KB, FlexRed: 100 * units.KB, LegacyECN: 60 * units.KB}
}

// testbed is the §6.1 testbed as a scenario on layout: 10GbE, w_q = 0.5,
// the TestbedSpec switches, and flows replayed as a trace. A flow runs
// scheme when both its hosts' deployment groups are enabled, DCTCP
// otherwise.
func testbed(layout topo.Layout, scheme Scheme, deployment float64, seed int64, dur sim.Time, flows ...workload.FlowSpec) Scenario {
	return Scenario{
		Seed:       seed,
		Clos:       layout,
		LinkRate:   10 * units.Gbps,
		LinkDelay:  2 * sim.Microsecond,
		HostDelay:  1 * sim.Microsecond,
		SwitchBuf:  4500 * units.KB,
		BufAlpha:   0.25,
		Scheme:     scheme,
		WQ:         0.5,
		Spec:       TestbedSpec(),
		Deployment: deployment,
		Duration:   dur,
		TraceFlows: flows,
	}
}

// long is a flow from host src to host dst that outlasts any figure.
func long(src, dst int) workload.FlowSpec {
	return workload.FlowSpec{Src: src, Dst: dst, Size: 1 << 31}
}

// group is one throughput series: a flow counter summed over the flows
// with trace indices [from, to).
type group struct {
	name     string
	bytes    func(*transport.Flow) int64
	from, to int
}

func rx(f *transport.Flow) int64  { return f.RxBytes }
func pro(f *transport.Flow) int64 { return f.RxBytesPro }
func re(f *transport.Flow) int64  { return f.RxBytesRe }

// runSeries runs sc through Run's two halves and returns each group's
// throughput per millisecond window. The sampler is a private registry and
// prober over the built flows: exactly these sources, started between the
// halves — after every arrival is scheduled, right before the run — so
// every tick keeps its place in the engine's event order.
func runSeries(sc Scenario, groups ...group) *ThroughputSeries {
	b := build(sc)
	reg := obs.NewRegistry()
	names := make([]string, len(groups))
	for i, g := range groups {
		names[i] = g.name
		reg.CounterFunc("group", g.name, func() (n int64) {
			for _, f := range b.flows[g.from:g.to] {
				n += g.bytes(f)
			}
			return n
		})
	}
	p := sample(b.planes[0].eng, reg, sim.Millisecond, sc.Duration)
	b.run()
	out := &ThroughputSeries{Interval: p.Interval(), Names: names, Series: map[string][]units.Rate{}}
	for _, s := range p.Series() {
		rates := make([]units.Rate, 0, s.Values.Len())
		s.Values.Each(func(_ int, d int64) { rates = append(rates, units.RateOf(d, sim.Time(s.IntervalPs))) })
		out.Series[s.Metric] = rates
	}
	return out
}

// Fig1a reproduces Fig 1(a)/9(a): one ExpressPass flow (naïve deployment)
// and one DCTCP flow competing for a 10Gbps bottleneck; ExpressPass
// starves DCTCP. Pair 0 is deployed, pair 1 legacy.
func Fig1a(seed int64, dur sim.Time) *ThroughputSeries {
	return runSeries(testbed(topo.DumbbellLayout{Left: 2, Right: 2}, SchemeNaive, 0.5, seed, dur,
		long(0, 2), long(1, 3)),
		group{"ExpressPass", rx, 0, 1}, group{"DCTCP", rx, 1, 2})
}

// Fig1b reproduces Fig 1(b): 16 HOMA and 16 DCTCP flows competing for a
// 10Gbps bottleneck; HOMA's blind full-rate granting starves DCTCP. HOMA
// runs as registered — the FlexPass queue layout with its grants and
// unscheduled data in Q1, scheduled data beside DCTCP in Q2 — on pairs
// 0–15; pairs 16–31 are legacy.
func Fig1b(seed int64, dur sim.Time) *ThroughputSeries {
	flows := make([]workload.FlowSpec, 32)
	for i := range flows {
		flows[i] = long(i, 32+i)
	}
	return runSeries(testbed(topo.DumbbellLayout{Left: 32, Right: 32}, transport.SchemeHoma, 0.5, seed, dur, flows...),
		group{"HOMA", rx, 0, 16}, group{"DCTCP", rx, 16, 32})
}

// Fig7 reproduces Fig 7's three sub-flow throughput scenarios on the
// 2-to-1 testbed. variant: "a" one FlexPass flow, "b" two FlexPass flows,
// "c" one DCTCP + one FlexPass flow.
func Fig7(variant string, seed int64, dur sim.Time) *ThroughputSeries {
	three := topo.SingleSwitchLayout{N: 3}
	switch variant {
	case "a":
		return runSeries(testbed(three, SchemeFlexPass, 1, seed, dur, long(0, 2)),
			group{"Proactive", pro, 0, 1}, group{"Reactive", re, 0, 1})
	case "b":
		return runSeries(testbed(three, SchemeFlexPass, 1, seed, dur, long(0, 2), long(1, 2)),
			group{"Proactive", pro, 0, 2}, group{"Reactive", re, 0, 2},
			group{"Flow1", rx, 0, 1}, group{"Flow2", rx, 1, 2})
	case "c":
		return runSeries(versusDCTCP(SchemeFlexPass, seed, dur),
			group{"DCTCP", rx, 1, 2}, group{"Proactive", pro, 0, 1}, group{"Reactive", re, 0, 1})
	}
	panic("harness: Fig7 variant must be a, b, or c")
}

// versusDCTCP is the 2-to-1 testbed of Figs 7(c) and 9: scheme h0→h1
// against DCTCP h2→h1, hosts 0 and 1 deployed.
func versusDCTCP(scheme Scheme, seed int64, dur sim.Time) Scenario {
	return testbed(topo.SingleSwitchLayout{N: 3}, scheme, 2.0/3, seed, dur, long(0, 1), long(2, 1))
}

// Fig9Result carries the starvation comparison (Fig 9c).
type Fig9Result struct {
	ExpressPass *ThroughputSeries // naïve ExpressPass vs DCTCP (Fig 9a)
	FlexPass    *ThroughputSeries // FlexPass vs DCTCP (Fig 9b)
	// Starvation fractions: share of 1ms windows below 20% of capacity.
	StarvedExpressPassSide float64 // the DCTCP flow under naïve ExpressPass
	StarvedFlexPassSide    float64 // the DCTCP flow under FlexPass
}

// Fig9 reproduces Fig 9: starvation time of the legacy flow under naïve
// ExpressPass vs under FlexPass, on the 2-to-1 testbed.
func Fig9(seed int64, dur sim.Time) *Fig9Result {
	threshold := (10 * units.Gbps).Scale(0.2)
	res := &Fig9Result{
		ExpressPass: runSeries(versusDCTCP(SchemeNaive, seed, dur),
			group{"ExpressPass", rx, 0, 1}, group{"DCTCP", rx, 1, 2}),
		FlexPass: runSeries(versusDCTCP(SchemeFlexPass, seed, dur),
			group{"FlexPass", rx, 0, 1}, group{"DCTCP", rx, 1, 2}),
	}
	_, res.StarvedExpressPassSide = metrics.StarvationFraction(
		res.ExpressPass.Series["ExpressPass"], res.ExpressPass.Series["DCTCP"], threshold, true)
	_, res.StarvedFlexPassSide = metrics.StarvationFraction(
		res.FlexPass.Series["FlexPass"], res.FlexPass.Series["DCTCP"], threshold, true)
	return res
}

// Fig8Row is one incast measurement.
type Fig8Row struct {
	Flows     int
	Transport string
	MaxFCT    sim.Time
	Timeouts  int
}

// Fig8 reproduces Fig 8: an 8-to-1 incast of 64kB responses on the
// testbed; tail FCT while increasing the number of flows. DCTCP suffers
// RTOs at high degree; ExpressPass and FlexPass never do.
func Fig8(flowCounts []int, seeds []int64) []Fig8Row {
	var rows []Fig8Row
	for _, n := range flowCounts {
		// The receiver's synchronized requests arrive together; the
		// responses start within a tiny jitter.
		flows := make([]workload.FlowSpec, n)
		for i := range flows {
			flows[i] = workload.FlowSpec{Src: i % 8, Dst: 8, Size: 64_000, At: sim.Time(i) * 100 * sim.Nanosecond}
		}
		for _, tp := range []Scheme{transport.SchemeDCTCP, transport.SchemeExpressPass, SchemeFlexPass} {
			row := Fig8Row{Flows: n, Transport: string(tp)}
			for _, seed := range seeds {
				sc := testbed(topo.SingleSwitchLayout{N: 9}, tp, 1, seed, 0, flows...)
				sc.Drain = 2 * sim.Second
				for _, r := range Run(sc).Flows.Records {
					fct := r.FCT
					if !r.Completed {
						fct = sc.Drain // a huge visible spike
					}
					row.MaxFCT = max(row.MaxFCT, fct)
					row.Timeouts += r.Timeouts
				}
			}
			rows = append(rows, row)
		}
	}
	return rows
}
