// Package prof is the engine self-profiler: it attaches to a sim.Engine's
// dispatch hook and accumulates per-component wall time, event counts,
// worst-case dispatch latency, and power-of-two latency histograms, keyed
// by the component labels threaded through the engine's scheduling sites.
//
// Like trace.Ring, a nil *Profiler no-ops every method, so instrumented
// code keeps unconditional calls. The observe path is allocation-free:
// state lives in a fixed array indexed by the one-byte component label,
// so attaching a profiler never perturbs the engine's zero-alloc dispatch
// loop — and since component labels are pure metadata, flow results stay
// bit-identical with profiling on or off.
package prof

import (
	"fmt"
	"io"
	"sort"
	"time"

	"flexpass/internal/obs"
	"flexpass/internal/sim"
)

// buckets is the latency histogram size, in obs's power-of-two buckets of
// nanoseconds (obs.BucketOf). 2^47 ns is ~39 hours — far past any single
// dispatch.
const buckets = 48

// Stats is one component's accumulated dispatch accounting.
type Stats struct {
	Events  uint64        // dispatches attributed to the component
	Wall    time.Duration // total wall time inside those dispatches
	Max     time.Duration // worst single dispatch
	Buckets [buckets]int64
}

// Profiler accumulates dispatch stats per component. Construct with New
// and install with Attach; the zero value is usable but detached.
type Profiler struct {
	eng   *sim.Engine
	stats [256]Stats
}

// New returns a detached profiler.
func New() *Profiler { return &Profiler{} }

// Attach installs the profiler on eng's dispatch hook and remembers the
// engine so exports can resolve component names. Nil-safe: a nil
// profiler leaves the engine unprofiled.
func (p *Profiler) Attach(eng *sim.Engine) {
	if p == nil {
		return
	}
	p.eng = eng
	eng.SetProfile(p.observe)
}

// observe is the dispatch hook. It must not allocate: it runs once per
// engine event.
func (p *Profiler) observe(c sim.Component, d time.Duration) {
	s := &p.stats[c]
	s.Events++
	s.Wall += d
	if d > s.Max {
		s.Max = d
	}
	s.Buckets[obs.BucketOf(d.Nanoseconds(), buckets)]++
}

// Stats returns the accumulated stats for component c.
func (p *Profiler) Stats(c sim.Component) Stats {
	if p == nil {
		return Stats{}
	}
	return p.stats[c]
}

// components lists the registered components that dispatched at least one
// event, in label order (which is registration order).
func (p *Profiler) components() []sim.Component {
	if p == nil || p.eng == nil {
		return nil
	}
	var out []sim.Component
	for i := range p.eng.ComponentNames() {
		if p.stats[i].Events > 0 {
			out = append(out, sim.Component(i))
		}
	}
	return out
}

// Export renders the profile for the run manifest: one entry per
// component that dispatched events, in registration order, with
// zero-count histogram buckets elided. Nil-safe (returns nil).
func (p *Profiler) Export() []obs.ComponentProfile {
	if p == nil || p.eng == nil {
		return nil
	}
	names := p.eng.ComponentNames()
	var out []obs.ComponentProfile
	for _, c := range p.components() {
		s := &p.stats[c]
		cp := obs.ComponentProfile{
			Component: names[c],
			Events:    s.Events,
			WallNs:    s.Wall.Nanoseconds(),
			MaxNs:     s.Max.Nanoseconds(),
		}
		cp.Le, cp.Counts = obs.SparseBuckets(s.Buckets[:])
		out = append(out, cp)
	}
	return out
}

// WriteFoldedProfile emits an exported (possibly merged) profile in
// folded-stacks form — one "engine;<component> <wall_us>" line per
// component — the input format flamegraph.pl and speedscope accept.
// Components that dispatched events but accumulated less than a
// microsecond are clamped to 1 so they stay visible. Lines are sorted by
// descending wall time.
func WriteFoldedProfile(w io.Writer, profile []obs.ComponentProfile) error {
	profile = sortedByWall(profile)
	for i := range profile {
		cp := &profile[i]
		us := cp.WallNs / 1e3
		if us < 1 {
			us = 1
		}
		if _, err := fmt.Fprintf(w, "engine;%s %d\n", cp.Component, us); err != nil {
			return err
		}
	}
	return nil
}

// sortedByWall orders a profile by descending wall time, ties keeping the
// export's registration order.
func sortedByWall(profile []obs.ComponentProfile) []obs.ComponentProfile {
	out := append([]obs.ComponentProfile(nil), profile...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].WallNs > out[j].WallNs })
	return out
}

// WriteTableProfile renders an exported (possibly merged) profile as a
// human-readable summary sorted by descending wall time: component,
// events, total wall, mean and max dispatch.
func WriteTableProfile(w io.Writer, profile []obs.ComponentProfile) error {
	profile = sortedByWall(profile)
	var totalWall time.Duration
	var totalEvents uint64
	for i := range profile {
		totalWall += time.Duration(profile[i].WallNs)
		totalEvents += profile[i].Events
	}
	if _, err := fmt.Fprintf(w, "%-24s %12s %12s %10s %10s %6s\n",
		"COMPONENT", "EVENTS", "WALL", "MEAN", "MAX", "%"); err != nil {
		return err
	}
	for i := range profile {
		cp := &profile[i]
		wall := time.Duration(cp.WallNs)
		mean := time.Duration(0)
		if cp.Events > 0 {
			mean = wall / time.Duration(cp.Events)
		}
		pct := 0.0
		if totalWall > 0 {
			pct = 100 * float64(wall) / float64(totalWall)
		}
		if _, err := fmt.Fprintf(w, "%-24s %12d %12s %10s %10s %5.1f%%\n",
			cp.Component, cp.Events, wall.Round(time.Microsecond), mean, time.Duration(cp.MaxNs), pct); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%-24s %12d %12s\n", "total", totalEvents, totalWall.Round(time.Microsecond))
	return err
}

// MergeExports folds several exported profiles (one per shard) into one:
// components are matched by name in first-seen order, events and wall
// time summed, worst dispatch maxed, and histogram buckets merged by
// bound. Sharded runs merge per-shard exports with this because one
// Profiler cannot observe several engines. One export is returned as it
// is, not copied.
func MergeExports(exports ...[]obs.ComponentProfile) []obs.ComponentProfile {
	if len(exports) == 1 {
		return exports[0]
	}
	index := map[string]int{}
	var out []obs.ComponentProfile
	for _, exp := range exports {
		for i := range exp {
			cp := &exp[i]
			j, ok := index[cp.Component]
			if !ok {
				index[cp.Component] = len(out)
				out = append(out, obs.ComponentProfile{
					Component: cp.Component,
					Events:    cp.Events,
					WallNs:    cp.WallNs,
					MaxNs:     cp.MaxNs,
					Le:        append([]int64(nil), cp.Le...),
					Counts:    append([]int64(nil), cp.Counts...),
				})
				continue
			}
			dst := &out[j]
			dst.Events += cp.Events
			dst.WallNs += cp.WallNs
			if cp.MaxNs > dst.MaxNs {
				dst.MaxNs = cp.MaxNs
			}
			dst.Le, dst.Counts = obs.MergeSparse(dst.Le, dst.Counts, cp.Le, cp.Counts)
		}
	}
	return out
}
