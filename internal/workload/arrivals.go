package workload

import (
	"cmp"
	"math"
	"slices"

	"flexpass/internal/sim"
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
