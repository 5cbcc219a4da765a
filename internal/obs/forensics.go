package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"flexpass/internal/sim"
)

// Forensics line payloads for the JSONL run artifact. The forensics
// package (which owns the live recorder and auditors) builds its records
// in these plain structs; obs deliberately knows nothing about netem or
// transport types, so enums arrive as strings.

// ForensicsData is one "forensics" artifact line: exactly one of the
// payload pointers is set.
type ForensicsData struct {
	Violation *ViolationData `json:"violation,omitempty"`
	Timeline  *TimelineData  `json:"timeline,omitempty"`
}

// ViolationData is one invariant-auditor finding.
type ViolationData struct {
	AtPs    int64  `json:"at_ps"`
	Auditor string `json:"auditor"`
	Entity  string `json:"entity,omitempty"`
	Flow    uint64 `json:"flow,omitempty"`
	Detail  string `json:"detail"`
}

func (v ViolationData) String() string {
	s := fmt.Sprintf("%v [%s]", sim.Time(v.AtPs), v.Auditor)
	if v.Entity != "" {
		s += " " + v.Entity
	}
	if v.Flow != 0 {
		s += fmt.Sprintf(" flow=%d", v.Flow)
	}
	return s + ": " + v.Detail
}

// TimelineData is one flow's assembled forensic timeline: hop-by-hop
// packet events plus transport lifecycle events and a per-port
// queueing-delay breakdown.
type TimelineData struct {
	Flow        uint64         `json:"flow"`
	Transport   string         `json:"transport"`
	Size        int64          `json:"size"`
	StartPs     int64          `json:"start_ps"`
	FctPs       int64          `json:"fct_ps"` // -1 when the flow never completed
	Slowdown    float64        `json:"slowdown,omitempty"`
	Hops        []HopData      `json:"hops,omitempty"`
	HopsDropped int64          `json:"hops_dropped,omitempty"` // records lost to the per-flow cap
	Delays      []HopDelayData `json:"delays,omitempty"`
	Events      []TraceData    `json:"events,omitempty"`
}

// HopData is one packet event at one port.
type HopData struct {
	AtPs       int64  `json:"at_ps"`
	Port       string `json:"port"`
	Queue      int    `json:"queue"` // -1 for fault drops (pre-classification)
	Event      string `json:"event"` // "enq", "deq", "drop"
	Kind       string `json:"kind"`  // packet kind ("pro-data", "credit", ...)
	Seq        uint32 `json:"seq"`
	Color      string `json:"color,omitempty"`
	WaitPs     int64  `json:"wait_ps,omitempty"` // dequeue: time spent queued here
	TxPs       int64  `json:"tx_ps,omitempty"`   // dequeue: serialization time
	QueueBytes int64  `json:"queue_bytes,omitempty"`
	Reason     string `json:"reason,omitempty"` // drop reason
}

// HopDelayData aggregates a flow's queueing behaviour at one port.
type HopDelayData struct {
	Port        string `json:"port"`
	Dequeues    int64  `json:"dequeues"`
	Drops       int64  `json:"drops"`
	TotalWaitPs int64  `json:"total_wait_ps"`
	MaxWaitPs   int64  `json:"max_wait_ps"`
}

// Violations returns the artifact's auditor findings.
func (r *Run) Violations() []ViolationData {
	var out []ViolationData
	for _, f := range r.Forensics {
		if f.Violation != nil {
			out = append(out, *f.Violation)
		}
	}
	return out
}

// Timelines returns the artifact's flow timelines.
func (r *Run) Timelines() []TimelineData {
	var out []TimelineData
	for _, f := range r.Forensics {
		if f.Timeline != nil {
			out = append(out, *f.Timeline)
		}
	}
	return out
}

// FindTimeline returns the timeline for a flow, or nil.
func (r *Run) FindTimeline(flow uint64) *TimelineData {
	for _, f := range r.Forensics {
		if f.Timeline != nil && f.Timeline.Flow == flow {
			return f.Timeline
		}
	}
	return nil
}

// TimelineRows is the default cap on a rendered timeline's chronology.
const TimelineRows = 48

// Render writes t as text: a header, the per-hop queueing delay, and one
// chronology of its hop records, its lifecycle events (◆) and the run's
// fault actions (⚡), so the reader sees the flow's hops against the fault
// window that explains them. The chronology keeps its newest maxRows
// rows; 0 keeps all. When rows are elided, raise (if not empty) names
// what the reader can raise to see them.
func (t *TimelineData) Render(w io.Writer, faults []FaultData, maxRows int, raise string) error {
	var b strings.Builder
	fct := "incomplete"
	if t.FctPs >= 0 {
		fct = sim.Time(t.FctPs).String()
	}
	fmt.Fprintf(&b, "flow %d %s size=%dB start=%v fct=%s slowdown=%.2f\n",
		t.Flow, t.Transport, t.Size, sim.Time(t.StartPs), fct, t.Slowdown)
	if len(t.Delays) > 0 {
		b.WriteString("per-hop queueing delay:\n")
		for _, d := range t.Delays {
			avg := int64(0)
			if d.Dequeues > 0 {
				avg = d.TotalWaitPs / d.Dequeues
			}
			fmt.Fprintf(&b, "  %-28s %5d pkts  avg %-10v max %-10v drops %d\n",
				d.Port, d.Dequeues, sim.Time(avg), sim.Time(d.MaxWaitPs), d.Drops)
		}
	}

	type row struct {
		at   int64
		text string
	}
	var rows []row
	for _, h := range t.Hops {
		detail := ""
		switch h.Event {
		case "deq":
			detail = fmt.Sprintf("waited %v, tx %v", sim.Time(h.WaitPs), sim.Time(h.TxPs))
		case "enq":
			detail = fmt.Sprintf("queue %dB", h.QueueBytes)
		case "drop":
			detail = "reason " + h.Reason
		}
		color := ""
		if h.Color != "" && h.Color != "green" {
			color = " " + h.Color
		}
		rows = append(rows, row{h.AtPs, fmt.Sprintf("%-4s %-24s q%-2d %-12s seq=%-6d%s %s",
			h.Event, h.Port, h.Queue, h.Kind, h.Seq, color, detail)})
	}
	for _, ev := range t.Events {
		rows = append(rows, row{ev.AtPs, fmt.Sprintf("◆    %-12s seq=%d %s", ev.Kind, ev.Seq, ev.Note)})
	}
	for _, f := range faults {
		val := ""
		if f.Value != 0 {
			val = fmt.Sprintf(" (%g)", f.Value)
		}
		rows = append(rows, row{f.AtPs, fmt.Sprintf("⚡    %-12s %s%s", f.Kind, f.Link, val)})
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].at < rows[j].at })
	skipped := 0
	if maxRows > 0 && len(rows) > maxRows {
		skipped = len(rows) - maxRows
		rows = rows[skipped:]
	}
	if t.HopsDropped > 0 || skipped > 0 {
		if raise != "" {
			raise = "; raise " + raise
		}
		fmt.Fprintf(&b, "timeline (%d older records elided%s):\n", int64(skipped)+t.HopsDropped, raise)
	} else {
		b.WriteString("timeline:\n")
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "  %12v  %s\n", sim.Time(r.at), r.text)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
