package workload

import (
	"cmp"
	"math"
	"math/rand"
	"slices"

	"flexpass/internal/sim"
	"flexpass/internal/units"
)

// FlowSpec is one generated flow. Its JSON form is a pinned flow of a
// chaos repro document.
type FlowSpec struct {
	Src    int      `json:"src"` // host indices
	Dst    int      `json:"dst"`
	Size   int64    `json:"size"`
	At     sim.Time `json:"at_ps"`
	Incast bool     `json:"incast,omitempty"` // foreground incast flow

	// Tenant labels the load class the flow belongs to ("" = untagged);
	// plan sources stamp their tenant name here so per-tenant accounting
	// and lake columns can tell classes apart.
	Tenant string `json:"tenant,omitempty"`
	// Coflow groups flows that complete together (an RPC fan-out/fan-in
	// or a tagged incast event). 0 = not part of a coflow. IDs are
	// unique within one generated workload.
	Coflow uint64 `json:"coflow,omitempty"`
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

// Merge combines flow lists into one slice sorted by arrival time and
// stable for equal times: ties keep list order, then order within a
// list. Sorted lists, which every generator produces, merge in one
// linear pass; an unsorted list is stable-sorted on a copy first. The
// inputs are not modified, and the result is nil when every list is
// empty.
func Merge(lists ...[]FlowSpec) []FlowSpec {
	n := 0
	heads := make([][]FlowSpec, 0, len(lists))
	for _, l := range lists {
		if len(l) == 0 {
			continue
		}
		if !sortedByAt(l) {
			l = slices.Clone(l)
			slices.SortStableFunc(l, byAt)
		}
		n += len(l)
		heads = append(heads, l)
	}
	if n == 0 {
		return nil
	}
	all := make([]FlowSpec, 0, n)
	for len(heads) > 1 {
		k := 0 // the earliest head; the first list wins a tie
		for j := 1; j < len(heads); j++ {
			if heads[j][0].At < heads[k][0].At {
				k = j
			}
		}
		all = append(all, heads[k][0])
		if heads[k] = heads[k][1:]; len(heads[k]) == 0 {
			heads = slices.Delete(heads, k, k+1)
		}
	}
	return append(all, heads[0]...)
}

func byAt(a, b FlowSpec) int { return cmp.Compare(a.At, b.At) }

func sortedByAt(fs []FlowSpec) bool { return slices.IsSortedFunc(fs, byAt) }

// stableSortByAt orders flows by arrival time, preserving input order
// for equal instants (determinism).
func stableSortByAt(fs []FlowSpec) {
	if !sortedByAt(fs) {
		slices.SortStableFunc(fs, byAt)
	}
}

// DeployRacks returns how many racks run FlexPass at a deployment ratio:
// racks 0 to n-1 for n = ceil(ratio × racks), matching the paper's
// per-rack rollout. Both endpoints must be in enabled racks for a flow to
// use the new transport.
func DeployRacks(racks int, ratio float64) int {
	return min(int(math.Ceil(ratio*float64(racks))), racks)
}
