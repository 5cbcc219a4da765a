package topo

import (
	"fmt"

	"flexpass/internal/sim"
	"flexpass/internal/units"
)

// Layout is a fabric shape as a value: what a runner needs to plan a
// workload over the fabric, cut it into planes (one engine each), and
// build it. ClosParams, SingleSwitchLayout and DumbbellLayout are the
// three shapes.
type Layout interface {
	// Hosts returns the host count.
	Hosts() int
	// Group returns host i's deployment group — the unit a deployment
	// ratio enables, groups 0, 1, ... first (the rack of a Clos).
	Group(i int) int
	// Capacity returns the aggregate capacity that defines network load
	// at line rate rate (a Clos's ToR uplinks).
	Capacity(rate units.Rate) units.Rate
	// Planes returns how many engines the fabric is cut into when want
	// are requested; at least one.
	Planes(want int) int
	// Build builds the fabric across engs, len(engs) == Planes(want).
	Build(engs []*sim.Engine, p Params) *Fabric
	// String names the shape in a run manifest.
	String() string
}

// Group returns the rack of host i.
func (c ClosParams) Group(i int) int { return i / c.HostsPerTor }

// Capacity is the aggregate ToR→agg uplink capacity (§6.2's "network
// load" is a fraction of it).
func (c ClosParams) Capacity(rate units.Rate) units.Rate {
	return units.Rate(int64(rate) * int64(c.Pods*c.TorPerPod*c.AggPerPod))
}

// Planes is the pod-block cut ClosPodShards makes: min(want, Pods).
func (c ClosParams) Planes(want int) int { return max(min(want, c.Pods), 1) }

func (c ClosParams) String() string {
	return fmt.Sprintf("clos pods=%d agg/pod=%d tor/pod=%d hosts/tor=%d cores=%d hosts=%d",
		c.Pods, c.AggPerPod, c.TorPerPod, c.HostsPerTor, c.Cores, c.Hosts())
}

// SingleSwitchLayout is the §6.1 testbed shape: N hosts on one switch,
// host i its own deployment group, one plane.
type SingleSwitchLayout struct{ N int }

func (s SingleSwitchLayout) Hosts() int    { return s.N }
func (SingleSwitchLayout) Group(i int) int { return i }

// Capacity is the hosts' aggregate link capacity.
func (s SingleSwitchLayout) Capacity(rate units.Rate) units.Rate {
	return units.Rate(int64(rate) * int64(s.N))
}
func (SingleSwitchLayout) Planes(int) int { return 1 }
func (s SingleSwitchLayout) Build(engs []*sim.Engine, p Params) *Fabric {
	return SingleSwitch(engs[0], s.N, p)
}
func (s SingleSwitchLayout) String() string { return fmt.Sprintf("single-switch hosts=%d", s.N) }

// DumbbellLayout is Left senders l0, l1, ... and Right receivers r0, r1,
// ... (hosts in that order) joined by one line-rate bottleneck link. l_i
// and r_i share deployment group i, so pairs deploy together; one plane.
type DumbbellLayout struct{ Left, Right int }

func (d DumbbellLayout) Hosts() int { return d.Left + d.Right }
func (d DumbbellLayout) Group(i int) int {
	if i < d.Left {
		return i
	}
	return i - d.Left
}

// Capacity is the bottleneck's.
func (DumbbellLayout) Capacity(rate units.Rate) units.Rate { return rate }
func (DumbbellLayout) Planes(int) int                      { return 1 }
func (d DumbbellLayout) Build(engs []*sim.Engine, p Params) *Fabric {
	return Dumbbell(engs[0], d.Left, d.Right, p.LinkRate, p)
}
func (d DumbbellLayout) String() string {
	return fmt.Sprintf("dumbbell left=%d right=%d", d.Left, d.Right)
}
