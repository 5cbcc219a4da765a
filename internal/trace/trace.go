// Package trace provides a lightweight, allocation-bounded event recorder
// for debugging transport behaviour: flow lifecycle events, retransmission
// decisions, drops, and timeouts can be logged into a fixed-size ring and
// dumped as text.
//
// Tracing is opt-in and designed to be cheap when enabled and free when
// disabled (a nil *Ring no-ops every method), so instrumented code can
// keep unconditional trace calls.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"flexpass/internal/sim"
)

// Kind classifies trace events.
type Kind uint8

// Event kinds.
const (
	FlowStart Kind = iota
	FlowDone
	Drop
	Mark
	Retransmit
	Timeout
	CreditWaste
	CreditIssue
	CreditUse
	WindowCut
	Custom
)

var kindNames = [...]string{
	"flow-start", "flow-done", "drop", "mark", "retx", "timeout",
	"credit-waste", "credit-issue", "credit-use", "window-cut", "custom",
}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one recorded occurrence.
type Event struct {
	At   sim.Time
	Kind Kind
	Flow uint64
	Seq  int64
	Note string
}

// Ring is a fixed-capacity event recorder. The zero value and nil are
// both valid (nil records nothing).
type Ring struct {
	eng     *sim.Engine
	events  []Event
	next    int // oldest event once the ring is full; 0 until then
	dropped int64
}

// NewRing builds a recorder holding the last cap events.
func NewRing(eng *sim.Engine, capacity int) *Ring {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Ring{eng: eng, events: make([]Event, 0, capacity)}
}

// Add records an event.
func (r *Ring) Add(kind Kind, flow uint64, seq int64, note string) {
	if r == nil {
		return
	}
	ev := Event{Kind: kind, Flow: flow, Seq: seq, Note: note}
	if r.eng != nil {
		ev.At = r.eng.Now()
	}
	if len(r.events) < cap(r.events) {
		r.events = append(r.events, ev)
		return
	}
	r.events[r.next] = ev
	r.next = (r.next + 1) % cap(r.events)
	r.dropped++
}

// AddWindowCut records a WindowCut event noting its cause and the window
// it cut to ("timeout cwnd=12.5"). It formats only on a non-nil ring, so
// with tracing off a window cut boxes nothing.
func (r *Ring) AddWindowCut(flow uint64, seq int64, cause string, cwnd float64) {
	if r == nil {
		return
	}
	r.Add(WindowCut, flow, seq, fmt.Sprintf("%s cwnd=%.1f", cause, cwnd))
}

// Len reports how many events are held.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	return len(r.events)
}

// Overwritten reports how many old events were displaced.
func (r *Ring) Overwritten() int64 {
	if r == nil {
		return 0
	}
	return r.dropped
}

// Each calls fn with every held event in chronological order, reading
// the ring in place.
func (r *Ring) Each(fn func(Event)) {
	if r == nil {
		return
	}
	for _, ev := range r.events[r.next:] {
		fn(ev)
	}
	for _, ev := range r.events[:r.next] {
		fn(ev)
	}
}

// Events returns a copy of the held events in chronological order.
func (r *Ring) Events() []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, 0, len(r.events))
	out = append(out, r.events[r.next:]...)
	return append(out, r.events[:r.next]...)
}

// Filter returns held events matching the predicate, in order.
func (r *Ring) Filter(keep func(Event) bool) []Event {
	var out []Event
	r.Each(func(ev Event) {
		if keep(ev) {
			out = append(out, ev)
		}
	})
	return out
}

// Dump writes the events as text, one per line.
func (r *Ring) Dump(w io.Writer) (err error) {
	r.Each(func(ev Event) {
		if err == nil {
			_, err = fmt.Fprintf(w, "%12v %-12s flow=%d seq=%d %s\n",
				ev.At, ev.Kind, ev.Flow, ev.Seq, ev.Note)
		}
	})
	return err
}

// String renders the whole ring (tests, small rings only).
func (r *Ring) String() string {
	var b strings.Builder
	_ = r.Dump(&b)
	return b.String()
}

// Merge combines several rings into one read-only ring: events are
// concatenated and stably sorted by time (ties keep ring order, so pass
// rings in shard order for a deterministic result), and the displaced
// counts are summed. Sharded runs merge their per-shard rings with this
// after the fabric drains; nil rings are skipped. One ring is returned
// as it is, not copied.
func Merge(rings ...*Ring) *Ring {
	if len(rings) == 1 {
		return rings[0]
	}
	var events []Event
	var dropped int64
	for _, r := range rings {
		if r == nil {
			continue
		}
		events = append(events, r.Events()...)
		dropped += r.Overwritten()
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	return &Ring{events: events, dropped: dropped}
}
