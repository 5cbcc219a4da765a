package harness

import (
	"flexpass/internal/obs"
	"flexpass/internal/sim"
	"flexpass/internal/transport"
	"flexpass/internal/workload"
)

// recordWorkloadObs folds per-tenant and per-coflow workload accounting
// into the run's registry after the engine stops: flow/byte counters per
// load class ("workload/tenant/<name>"), coflow counts, and a coflow
// completion-time histogram ("workload/coflow" cct_us). Counters are
// registered only when the workload actually carries tenant or coflow
// tags, so artifacts of untagged runs are unchanged.
//
// The runner assigns flow ID = spec index + 1, which is the mapping this
// accounting relies on; started is Result.Flows' population, which is
// ordered by start time and leaves out specs whose arrival falls past the
// run window — such a spec has no started flow and counts as incomplete.
func recordWorkloadObs(reg *obs.Registry, specs []workload.FlowSpec, started []*transport.Flow) {
	if reg == nil {
		return
	}
	byID := make([]*transport.Flow, len(specs)+1)
	for _, fl := range started {
		if fl.ID > 0 && fl.ID < uint64(len(byID)) {
			byID[fl.ID] = fl
		}
	}
	type coflowState struct {
		total, done int
		arrive      sim.Time
		lastDone    sim.Time
	}
	coflows := map[uint64]*coflowState{}
	var order []uint64
	for i, fs := range specs {
		fl := byID[i+1]
		completed := fl != nil && fl.Completed
		if fs.Tenant != "" {
			ent := "workload/tenant/" + fs.Tenant
			reg.Counter(ent, "flows").Inc()
			reg.Counter(ent, "bytes").Add(fs.Size)
			if completed {
				reg.Counter(ent, "flows_done").Inc()
			}
		}
		if fs.Coflow == 0 {
			continue
		}
		cs := coflows[fs.Coflow]
		if cs == nil {
			cs = &coflowState{arrive: fs.At}
			coflows[fs.Coflow] = cs
			order = append(order, fs.Coflow)
		}
		cs.total++
		if completed {
			cs.done++
			if fl.Done > cs.lastDone {
				cs.lastDone = fl.Done
			}
		}
	}
	if len(coflows) == 0 {
		return
	}
	ent := "workload/coflow"
	total := reg.Counter(ent, "coflows")
	doneC := reg.Counter(ent, "coflows_done")
	cct := reg.Histogram(ent, "cct_us")
	for _, id := range order {
		cs := coflows[id]
		total.Inc()
		if cs.done == cs.total {
			// The coflow completes when its slowest member finishes;
			// its clock starts at the shared arrival instant.
			doneC.Inc()
			cct.Observe(int64((cs.lastDone - cs.arrive) / sim.Microsecond))
		}
	}
}
