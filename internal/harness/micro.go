package harness

import (
	"flexpass/internal/metrics"
	"flexpass/internal/netem"
	"flexpass/internal/obs"
	"flexpass/internal/sim"
	"flexpass/internal/topo"
	"flexpass/internal/transport"
	"flexpass/internal/transport/dctcp"
	"flexpass/internal/transport/expresspass"
	"flexpass/internal/transport/flexpass"
	"flexpass/internal/transport/homa"
	"flexpass/internal/units"
)

// ThroughputSeries is a set of named throughput time series (Figs 1/7/9).
type ThroughputSeries struct {
	Interval sim.Time
	Names    []string
	Series   map[string][]units.Rate
}

// testbedParams mirrors the §6.1 testbed: 10GbE, one switch, w_q = 0.5,
// ECN 60kB and selective dropping 100kB at Q1.
func testbedParams(profile topo.PortProfile) topo.Params {
	return topo.Params{
		LinkRate:  10 * units.Gbps,
		LinkDelay: 2 * sim.Microsecond,
		HostDelay: 1 * sim.Microsecond,
		SwitchBuf: 4500 * units.KB,
		BufAlpha:  0.25,
		Profile:   profile,
	}
}

// TestbedSpec is the §6.1 switch configuration.
func TestbedSpec() topo.Spec {
	return topo.Spec{WQ: 0.5, FlexECN: 60 * units.KB, FlexRed: 100 * units.KB, LegacyECN: 60 * units.KB}
}

func agentsFor(f *topo.Fabric) []*transport.Agent {
	ag := make([]*transport.Agent, len(f.Net.Hosts))
	for i := range ag {
		ag[i] = transport.NewAgent(f.Net.Eng, f.Net.Host(i))
	}
	return ag
}

// runSeries runs eng for dur while sampling each group's cumulative bytes
// every millisecond, and returns the per-window throughputs. The sampler
// is a private registry and prober: exactly these sources, started here —
// after the flows, right before the run — so every tick keeps its place
// in the engine's event order.
func runSeries(eng *sim.Engine, dur sim.Time, groups map[string]func() int64, order []string) *ThroughputSeries {
	reg := obs.NewRegistry()
	for _, name := range order {
		reg.CounterFunc("group", name, groups[name])
	}
	p := sample(eng, reg, sim.Millisecond, dur)
	eng.Run(dur)
	out := &ThroughputSeries{Interval: p.Interval(), Names: order, Series: map[string][]units.Rate{}}
	for _, s := range p.Series() {
		rates := make([]units.Rate, 0, s.Samples().Len())
		s.Samples().Each(func(_ int, d int64) { rates = append(rates, units.RateOf(d, s.Interval)) })
		out.Series[s.Metric] = rates
	}
	return out
}

// Fig1a reproduces Fig 1(a)/9(a): one ExpressPass flow (naïve deployment)
// and one DCTCP flow competing for a 10Gbps bottleneck; ExpressPass
// starves DCTCP.
func Fig1a(seed int64, dur sim.Time) *ThroughputSeries {
	eng := sim.NewEngine(seed)
	fab := topo.Dumbbell(eng, 2, 2, 10*units.Gbps, testbedParams(topo.NaiveProfile(TestbedSpec())))
	ag := agentsFor(fab)
	xp := &transport.Flow{ID: 1, Src: ag[0], Dst: ag[2], Size: 1 << 31, Transport: transport.SchemeExpressPass}
	dc := &transport.Flow{ID: 2, Src: ag[1], Dst: ag[3], Size: 1 << 31, Transport: transport.SchemeDCTCP, Legacy: true}
	expresspass.Start(eng, xp, expresspass.DefaultConfig(
		expresspass.DefaultPacerConfig(netem.CreditRateFor(10*units.Gbps, 1.0))))
	dctcp.Start(eng, dc, dctcp.LegacyConfig())
	return runSeries(eng, dur, map[string]func() int64{
		"ExpressPass": func() int64 { return xp.RxBytes },
		"DCTCP":       func() int64 { return dc.RxBytes },
	}, []string{"ExpressPass", "DCTCP"})
}

// Fig1b reproduces Fig 1(b): 16 HOMA and 16 DCTCP flows competing for a
// 10Gbps bottleneck; HOMA's blind full-rate granting starves DCTCP.
func Fig1b(seed int64, dur sim.Time) *ThroughputSeries {
	eng := sim.NewEngine(seed)
	fab := topo.Dumbbell(eng, 32, 32, 10*units.Gbps, testbedParams(topo.HomaProfile(100*units.KB)))
	ag := agentsFor(fab)
	var homaFlows, dcFlows []*transport.Flow
	id := uint64(1)
	for i := 0; i < 16; i++ {
		fl := &transport.Flow{ID: id, Src: ag[i], Dst: ag[32+i], Size: 1 << 31, Transport: transport.SchemeHoma}
		homaFlows = append(homaFlows, fl)
		homa.Start(eng, fl, homa.DefaultConfig(10*units.Gbps))
		id++
	}
	for i := 16; i < 32; i++ {
		fl := &transport.Flow{ID: id, Src: ag[i], Dst: ag[32+i], Size: 1 << 31, Transport: transport.SchemeDCTCP, Legacy: true}
		dcFlows = append(dcFlows, fl)
		dctcp.Start(eng, fl, dctcp.LegacyConfig())
		id++
	}
	sum := func(fs []*transport.Flow) func() int64 {
		return func() int64 {
			var t int64
			for _, f := range fs {
				t += f.RxBytes
			}
			return t
		}
	}
	return runSeries(eng, dur, map[string]func() int64{
		"HOMA":  sum(homaFlows),
		"DCTCP": sum(dcFlows),
	}, []string{"HOMA", "DCTCP"})
}

// Fig7 reproduces Fig 7's three sub-flow throughput scenarios on the
// 2-to-1 testbed. variant: "a" one FlexPass flow, "b" two FlexPass flows,
// "c" one DCTCP + one FlexPass flow.
func Fig7(variant string, seed int64, dur sim.Time) *ThroughputSeries {
	eng := sim.NewEngine(seed)
	fab := topo.SingleSwitch(eng, 3, testbedParams(topo.FlexPassProfile(TestbedSpec())))
	ag := agentsFor(fab)
	fpCfg := flexpass.DefaultConfig(expresspass.DefaultPacerConfig(netem.CreditRateFor(10*units.Gbps, 0.5)))

	groups := map[string]func() int64{}
	var order []string
	newFP := func(id uint64, src int) *transport.Flow {
		fl := &transport.Flow{ID: id, Src: ag[src], Dst: ag[2], Size: 1 << 31, Transport: transport.SchemeFlexPass}
		flexpass.Start(eng, fl, fpCfg)
		return fl
	}
	switch variant {
	case "a":
		fl := newFP(1, 0)
		order = []string{"Proactive", "Reactive"}
		groups["Proactive"] = func() int64 { return fl.RxBytesPro }
		groups["Reactive"] = func() int64 { return fl.RxBytesRe }
	case "b":
		f1, f2 := newFP(1, 0), newFP(2, 1)
		order = []string{"Proactive", "Reactive", "Flow1", "Flow2"}
		groups["Proactive"] = func() int64 { return f1.RxBytesPro + f2.RxBytesPro }
		groups["Reactive"] = func() int64 { return f1.RxBytesRe + f2.RxBytesRe }
		groups["Flow1"] = func() int64 { return f1.RxBytes }
		groups["Flow2"] = func() int64 { return f2.RxBytes }
	case "c":
		fp := newFP(1, 0)
		dc := &transport.Flow{ID: 2, Src: ag[1], Dst: ag[2], Size: 1 << 31, Transport: transport.SchemeDCTCP, Legacy: true}
		dctcp.Start(eng, dc, dctcp.LegacyConfig())
		order = []string{"DCTCP", "Proactive", "Reactive"}
		groups["DCTCP"] = func() int64 { return dc.RxBytes }
		groups["Proactive"] = func() int64 { return fp.RxBytesPro }
		groups["Reactive"] = func() int64 { return fp.RxBytesRe }
	default:
		panic("harness: Fig7 variant must be a, b, or c")
	}
	return runSeries(eng, dur, groups, order)
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

	// (a) naïve ExpressPass vs DCTCP.
	engA := sim.NewEngine(seed)
	fabA := topo.SingleSwitch(engA, 3, testbedParams(topo.NaiveProfile(TestbedSpec())))
	agA := agentsFor(fabA)
	xp := &transport.Flow{ID: 1, Src: agA[0], Dst: agA[2], Size: 1 << 31, Transport: transport.SchemeExpressPass}
	dcA := &transport.Flow{ID: 2, Src: agA[1], Dst: agA[2], Size: 1 << 31, Transport: transport.SchemeDCTCP, Legacy: true}
	expresspass.Start(engA, xp, expresspass.DefaultConfig(
		expresspass.DefaultPacerConfig(netem.CreditRateFor(10*units.Gbps, 1.0))))
	dctcp.Start(engA, dcA, dctcp.LegacyConfig())
	seriesA := runSeries(engA, dur, map[string]func() int64{
		"ExpressPass": func() int64 { return xp.RxBytes },
		"DCTCP":       func() int64 { return dcA.RxBytes },
	}, []string{"ExpressPass", "DCTCP"})

	// (b) FlexPass vs DCTCP.
	engB := sim.NewEngine(seed)
	fabB := topo.SingleSwitch(engB, 3, testbedParams(topo.FlexPassProfile(TestbedSpec())))
	agB := agentsFor(fabB)
	fp := &transport.Flow{ID: 1, Src: agB[0], Dst: agB[2], Size: 1 << 31, Transport: transport.SchemeFlexPass}
	dcB := &transport.Flow{ID: 2, Src: agB[1], Dst: agB[2], Size: 1 << 31, Transport: transport.SchemeDCTCP, Legacy: true}
	flexpass.Start(engB, fp, flexpass.DefaultConfig(
		expresspass.DefaultPacerConfig(netem.CreditRateFor(10*units.Gbps, 0.5))))
	dctcp.Start(engB, dcB, dctcp.LegacyConfig())
	seriesB := runSeries(engB, dur, map[string]func() int64{
		"FlexPass": func() int64 { return fp.RxBytes },
		"DCTCP":    func() int64 { return dcB.RxBytes },
	}, []string{"FlexPass", "DCTCP"})

	res := &Fig9Result{ExpressPass: seriesA, FlexPass: seriesB}
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
		for _, tp := range []string{transport.SchemeDCTCP, transport.SchemeExpressPass, transport.SchemeFlexPass} {
			var worst sim.Time
			timeouts := 0
			for _, seed := range seeds {
				fct, to := runIncastOnce(tp, n, seed)
				if fct > worst {
					worst = fct
				}
				timeouts += to
			}
			rows = append(rows, Fig8Row{Flows: n, Transport: tp, MaxFCT: worst, Timeouts: timeouts})
		}
	}
	return rows
}

func runIncastOnce(tp string, n int, seed int64) (maxFCT sim.Time, timeouts int) {
	eng := sim.NewEngine(seed)
	env := &transport.SchemeEnv{
		Eng:      eng,
		LinkRate: 10 * units.Gbps,
		WQ:       0.5,
		Spec:     TestbedSpec(),
	}
	sch := mustScheme(tp, env)
	fab := topo.SingleSwitch(eng, 9, testbedParams(sch.Profile()))
	ag := agentsFor(fab)
	var flows []*transport.Flow
	for i := 0; i < n; i++ {
		fl := &transport.Flow{
			ID:   uint64(i + 1),
			Src:  ag[i%8],
			Dst:  ag[8],
			Size: 64_000,
			// The receiver's synchronized requests arrive together; the
			// responses start within a tiny jitter.
			Start: sim.Time(i) * 100 * sim.Nanosecond,
		}
		fl.Transport = tp
		flows = append(flows, fl)
		start := fl.Start
		fl2 := fl
		eng.At(start, func() { transport.Start(sch, fl2) })
	}
	eng.Run(2 * sim.Second)
	for _, fl := range flows {
		if !fl.Completed {
			// Treat as a 2s FCT: a huge visible spike.
			return 2 * sim.Second, timeouts + fl.Timeouts
		}
		if fl.FCT() > maxFCT {
			maxFCT = fl.FCT()
		}
		timeouts += fl.Timeouts
	}
	return maxFCT, timeouts
}
