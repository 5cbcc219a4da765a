package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call into a layer's public function. Spans live in
// memory until the benchmark ends; a child process ships its spans to
// the parent in its result line and the parent writes them all out.
// IDs are 1-based positions in the recorder's slice; Parent 0 is a root.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	Start    int64  `json:"start_ns"` // wall clock, unix ns
	End      int64  `json:"end_ns"`
}

// recorder collects spans. A nil recorder records nothing, so the
// untraced pass runs the same code with no clock reads added.
type recorder struct {
	workload string
	rep      int
	spans    []span
	open     []int // stack of open span IDs
}

// do runs fn inside a span named name, nested under whatever span is
// open, and returns fn's host duration.
func (r *recorder) do(name string, fn func()) time.Duration {
	start := time.Now()
	if r == nil {
		fn()
		return time.Since(start)
	}
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name,
		Workload: r.workload, Rep: r.rep, Start: start.UnixNano()})
	r.open = append(r.open, id)
	fn()
	end := time.Now()
	r.open = r.open[:len(r.open)-1]
	r.spans[id-1].End = end.UnixNano()
	return end.Sub(start)
}

// adopt appends a child process's spans under the currently open span,
// renumbering them into this recorder's ID space.
func (r *recorder) adopt(child []span) {
	if r == nil {
		return
	}
	base := len(r.spans)
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	for _, s := range child {
		s.ID += base
		if s.Parent == 0 {
			s.Parent = parent
		} else {
			s.Parent += base
		}
		r.spans = append(r.spans, s)
	}
}

// selfNs returns each span's self time: its duration minus the part its
// direct children cover.
func selfNs(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
	}
	for _, s := range spans {
		if s.Parent > 0 {
			self[s.Parent-1] -= s.End - s.Start
		}
	}
	return self
}

// checkSpans verifies the trace is well formed: every child lies inside
// its parent, and the children of each "rep" span cover at least 95% of
// it (so no layer call went unrecorded). Gaps that add up to under 10 ms
// pass whatever the share: that is the host descheduling the process
// between two calls, which a smoke-scale rep of 100 ms cannot absorb.
func checkSpans(spans []span) []string {
	var bad []string
	self := selfNs(spans)
	for i, s := range spans {
		if s.End < s.Start {
			bad = append(bad, fmt.Sprintf("span %d %q ends before it starts", s.ID, s.Name))
		}
		if s.Parent > 0 {
			p := spans[s.Parent-1]
			if s.Start < p.Start || s.End > p.End {
				bad = append(bad, fmt.Sprintf("span %d %q lies outside its parent %q", s.ID, s.Name, p.Name))
			}
		}
		if s.Name == "rep" {
			if dur := s.End - s.Start; self[i] > 10e6 && float64(self[i]) > 0.05*float64(dur) {
				bad = append(bad, fmt.Sprintf("span %d rep of %s: children cover only %.1f%%",
					s.ID, s.Workload, 100*(1-float64(self[i])/float64(dur))))
			}
		}
	}
	return bad
}

// writeChromeTrace writes the spans as Chrome trace-event JSON (load in
// chrome://tracing or Perfetto). One track per workload; self time and
// the span tree ride in args.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`  // µs
		Dur  float64        `json:"dur"` // µs
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	self := selfNs(spans)
	tids := map[string]int{}
	var t0 int64
	for i, s := range spans {
		if i == 0 || s.Start < t0 {
			t0 = s.Start
		}
	}
	events := make([]event, 0, len(spans))
	for i, s := range spans {
		tid, ok := tids[s.Workload]
		if !ok {
			tid = len(tids) + 1
			tids[s.Workload] = tid
		}
		events = append(events, event{
			Name: s.Name, Ph: "X",
			Ts: float64(s.Start-t0) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: tid,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "workload": s.Workload,
				"rep": s.Rep, "self_us": float64(self[i]) / 1e3},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
