package workload

import (
	"math"
	"math/rand"
	"sort"

	"flexpass/internal/sim"
	"flexpass/internal/units"
)

// FlowSpec is one generated flow.
type FlowSpec struct {
	Src, Dst int // host indices
	Size     int64
	At       sim.Time
	Incast   bool // foreground incast flow

	// Tenant labels the load class the flow belongs to ("" = untagged);
	// plan sources stamp their tenant name here so per-tenant accounting
	// and lake columns can tell classes apart.
	Tenant string
	// Coflow groups flows that complete together (an RPC fan-out/fan-in
	// or a tagged incast event). 0 = not part of a coflow. IDs are
	// unique within one generated workload.
	Coflow uint64
}

// BackgroundParams calibrates the §6.2 background traffic: Poisson flow
// arrivals between random host pairs, sized by a CDF, with the arrival
// rate set so the ToR-uplink (core) utilization hits Load.
type BackgroundParams struct {
	CDF   *CDF
	Hosts int
	// RackOf maps host index to rack, for the rack-crossing correction
	// (intra-rack flows do not cross ToR uplinks). Nil disables the
	// correction.
	RackOf []int
	// UplinkCapacity is the aggregate one-direction ToR uplink capacity.
	UplinkCapacity units.Rate
	Load           float64
	Duration       sim.Time
}

// crossProb returns the probability a uniformly random src/dst pair spans
// two racks.
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
	return 1 - same/(float64(hosts)*float64(hosts-1))
}

// ArrivalRate returns the Poisson flow arrival rate (flows/second) hitting
// the load target.
func (p BackgroundParams) ArrivalRate() float64 {
	mean := p.CDF.Mean()
	cross := crossProb(p.Hosts, p.RackOf)
	if cross <= 0 {
		cross = 1
	}
	bytesPerSec := p.Load * float64(p.UplinkCapacity) / 8
	return bytesPerSec / (mean * cross)
}

// Generate produces the background flow list, sorted by arrival time.
func (p BackgroundParams) Generate(r *rand.Rand) []FlowSpec {
	lambda := p.ArrivalRate()
	var flows []FlowSpec
	t := 0.0
	horizon := p.Duration.Seconds()
	for {
		t += r.ExpFloat64() / lambda
		if t >= horizon {
			break
		}
		src := r.Intn(p.Hosts)
		dst := r.Intn(p.Hosts - 1)
		if dst >= src {
			dst++
		}
		flows = append(flows, FlowSpec{
			Src:  src,
			Dst:  dst,
			Size: p.CDF.Sample(r),
			At:   sim.Time(t * float64(sim.Second)),
		})
	}
	return flows
}

// IncastParams generates the §6.2 foreground traffic: at each event a
// random receiver is chosen and every other host sends FlowsPerSender
// flows of FlowSize bytes to it. Events are Poisson with rate set so
// foreground volume is VolumeFraction of the background volume's
// grand total (the paper uses 10% of total traffic).
type IncastParams struct {
	Hosts          int
	FlowsPerSender int
	FlowSize       int64
	// EventRate is events per second. Use EventRateFor to derive it from
	// a volume fraction.
	EventRate float64
	Duration  sim.Time
}

// EventRateFor computes the incast event rate making foreground traffic
// the given fraction of total traffic, where background occupies bg
// bytes/sec.
func EventRateFor(fraction float64, bgBytesPerSec float64, hosts, flowsPerSender int, flowSize int64) float64 {
	perEvent := float64(hosts-1) * float64(flowsPerSender) * float64(flowSize)
	// fg = fraction * (fg + bg)  =>  fg = bg * fraction/(1-fraction)
	fgBytesPerSec := bgBytesPerSec * fraction / (1 - fraction)
	return fgBytesPerSec / perEvent
}

// Generate produces the incast flow list, sorted by arrival time.
func (p IncastParams) Generate(r *rand.Rand) []FlowSpec {
	var flows []FlowSpec
	t := 0.0
	horizon := p.Duration.Seconds()
	if p.EventRate <= 0 {
		return nil
	}
	for {
		t += r.ExpFloat64() / p.EventRate
		if t >= horizon {
			break
		}
		dst := r.Intn(p.Hosts)
		at := sim.Time(t * float64(sim.Second))
		for src := 0; src < p.Hosts; src++ {
			if src == dst {
				continue
			}
			for k := 0; k < p.FlowsPerSender; k++ {
				flows = append(flows, FlowSpec{
					Src: src, Dst: dst, Size: p.FlowSize, At: at, Incast: true,
				})
			}
		}
	}
	return flows
}

// Merge combines flow lists into one sorted-by-time slice (stable for
// equal times).
func Merge(lists ...[]FlowSpec) []FlowSpec {
	var all []FlowSpec
	for _, l := range lists {
		all = append(all, l...)
	}
	stableSortByAt(all)
	return all
}

// stableSortByAt orders flows by arrival time, preserving generation order
// for equal instants (determinism).
func stableSortByAt(fs []FlowSpec) {
	sort.SliceStable(fs, func(i, j int) bool { return fs[i].At < fs[j].At })
}

// DeployRacks returns the set of FlexPass-enabled racks for a deployment
// ratio: the first ceil(ratio × racks) racks, matching the paper's
// per-rack rollout. Both endpoints must be in enabled racks for a flow to
// use the new transport.
func DeployRacks(racks int, ratio float64) map[int]bool {
	n := int(math.Ceil(ratio * float64(racks)))
	if n > racks {
		n = racks
	}
	enabled := make(map[int]bool, n)
	for i := 0; i < n; i++ {
		enabled[i] = true
	}
	return enabled
}
