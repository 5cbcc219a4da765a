// Package forensics answers "where did this packet spend its time and
// which invariant broke first" for a simulation run: it records
// hop-by-hop packet events from the netem data plane, assembles them —
// together with transport lifecycle trace events — into per-flow
// timelines with a queueing-delay breakdown, and runs observation-only
// invariant auditors on the engine clock.
//
// Everything here is strictly read-only with respect to the simulation:
// the recorder and auditors never send packets, mutate flows, or draw
// from the engine's random stream, so enabling forensics leaves flow
// results byte-identical to a plain run with the same seed (the harness
// tests assert exactly this). In a deterministic simulator that makes
// hop records exact INT-style path metadata with zero measurement noise.
package forensics

import (
	"fmt"
	"io"
	"slices"
	"sort"

	"flexpass/internal/netem"
	"flexpass/internal/obs"
	"flexpass/internal/sim"
	"flexpass/internal/trace"
	"flexpass/internal/transport"
)

// Options configures forensic collection (harness Scenario.Forensics).
// The zero value enables hop recording on every flow with sane caps and
// the full auditor set.
type Options struct {
	// Flows restricts hop recording to these flow IDs (nil records all).
	// Flows listed here always get an exported timeline, in addition to
	// the worst-slowdown ones.
	Flows []uint64

	// HopCap bounds the hop records kept per flow; the newest records
	// win (a ring, like trace.Ring). Default 2048.
	HopCap int

	// MaxFlows bounds how many distinct flows are recorded. Default 4096.
	MaxFlows int

	// Timelines is how many worst-slowdown flow timelines the harness
	// exports on completion. Default 4.
	Timelines int

	// AuditEvery is the auditor tick period. Default 100µs; negative
	// disables the auditors entirely.
	AuditEvery sim.Time

	// StarveAfter is how long a started, incomplete flow may go without
	// receiving a byte before the starvation watchdog flags it.
	// Default 10ms.
	StarveAfter sim.Time

	// MaxViolations bounds retained auditor findings. Default 1024.
	MaxViolations int

	// WrapCreditAccountant is a test seam: when set, the harness passes
	// its credit accounting closures (issued, consumed, dropped) through
	// it before handing them to the credit-conservation auditor. Tests
	// install deliberately broken accountants to prove violations reach
	// the exported artifact. Production runs leave it nil.
	WrapCreditAccountant func(issued, consumed, dropped func() int64) (func() int64, func() int64, func() int64)
}

func (o *Options) hopCap() int {
	if o == nil || o.HopCap <= 0 {
		return 2048
	}
	return o.HopCap
}

func (o *Options) maxFlows() int {
	if o == nil || o.MaxFlows <= 0 {
		return 4096
	}
	return o.MaxFlows
}

func (o *Options) timelines() int {
	if o == nil || o.Timelines <= 0 {
		return 4
	}
	return o.Timelines
}

func (o *Options) auditEvery() sim.Time {
	if o == nil || o.AuditEvery == 0 {
		return 100 * sim.Microsecond
	}
	return o.AuditEvery
}

func (o *Options) starveAfter() sim.Time {
	if o == nil || o.StarveAfter <= 0 {
		return 10 * sim.Millisecond
	}
	return o.StarveAfter
}

func (o *Options) maxViolations() int {
	if o == nil || o.MaxViolations <= 0 {
		return 1024
	}
	return o.MaxViolations
}

// HopEvent says what happened to a packet at a port.
type HopEvent uint8

// Hop events.
const (
	HopEnq HopEvent = iota
	HopDeq
	HopDrop
)

var hopEventNames = [...]string{"enq", "deq", "drop"}

// String names the event.
func (e HopEvent) String() string {
	if int(e) < len(hopEventNames) {
		return hopEventNames[e]
	}
	return "unknown"
}

// HopRecord is one packet event at one port.
type HopRecord struct {
	At    sim.Time
	Port  string
	Queue int // -1 for fault drops (pre-classification)
	Ev    HopEvent
	Kind  netem.Kind
	Seq   uint32
	Color netem.Color

	Wait   sim.Time         // HopDeq: time spent queued at this port
	Tx     sim.Time         // HopDeq: serialization time
	QBytes int64            // HopEnq: queue occupancy including this packet
	Reason netem.DropReason // HopDrop only
}

// flowLog is a per-flow ring of hop records; the newest HopCap win.
type flowLog struct {
	recs    []HopRecord
	next    int
	wrapped bool
	dropped int64
}

func (l *flowLog) add(cap int, rec HopRecord) {
	if len(l.recs) < cap {
		l.recs = append(l.recs, rec)
		return
	}
	l.recs[l.next] = rec
	l.next = (l.next + 1) % len(l.recs)
	l.wrapped = true
	l.dropped++
}

func (l *flowLog) events() []HopRecord {
	if !l.wrapped {
		out := make([]HopRecord, len(l.recs))
		copy(out, l.recs)
		return out
	}
	out := make([]HopRecord, 0, len(l.recs))
	out = append(out, l.recs[l.next:]...)
	out = append(out, l.recs[:l.next]...)
	return out
}

// released stands in the flow table for a flow whose log was given up
// (see Recorder.Done): the flow still counts against MaxFlows and keeps
// its place in the first-seen order, and nothing is recorded for it again.
var released = &flowLog{}

// Recorder implements netem.HopObserver, bucketing hop records per flow.
// A nil *Recorder is a valid no-op observer component, but note that
// installing a nil Recorder via netem.SetHopObserver still costs an
// interface dispatch per packet event — leave the observer unset to pay
// nothing.
type Recorder struct {
	hopCap   int
	maxFlows int
	only     map[uint64]struct{}
	flows    map[uint64]*flowLog
	order    []uint64 // first-seen order: deterministic iteration
	skipped  int64    // records not kept (flow cap / filter overflow)

	// Completed flows WorstTimelines may still pick: the keep best
	// scores reported to Done, best first, with every tie for the last
	// place. The logs of the rest wait in free for the next new flow.
	keep  int
	worst []doneFlow
	free  []*flowLog
}

type doneFlow struct {
	flow  uint64
	score float64
}

// NewRecorder builds a hop recorder from opts (nil means defaults).
func NewRecorder(opts *Options) *Recorder {
	r := &Recorder{
		hopCap:   opts.hopCap(),
		maxFlows: opts.maxFlows(),
		flows:    make(map[uint64]*flowLog),
		keep:     opts.timelines(),
	}
	if opts != nil && len(opts.Flows) > 0 {
		r.only = make(map[uint64]struct{}, len(opts.Flows))
		for _, f := range opts.Flows {
			r.only[f] = struct{}{}
		}
	}
	return r
}

func (r *Recorder) log(flow uint64) *flowLog {
	if r.only != nil {
		if _, ok := r.only[flow]; !ok {
			return nil
		}
	}
	l := r.flows[flow]
	if l == released {
		return nil
	}
	if l == nil {
		if len(r.flows) >= r.maxFlows {
			r.skipped++
			return nil
		}
		if n := len(r.free); n > 0 {
			l, r.free = r.free[n-1], r.free[:n-1]
		} else {
			l = &flowLog{}
		}
		r.flows[flow] = l
		r.order = append(r.order, flow)
	}
	return l
}

// Done tells the recorder that flow completed with the given slowdown
// score — the score WorstTimelines will rank it by. A completed flow's
// score never changes and the keep-th best completed score only rises,
// so a flow strictly below it can never be exported: its log is released
// and its memory goes to the next new flow. Ties for the last place are
// kept, which leaves WorstTimelines' (start, ID) tie-break alone, and so
// are incomplete flows and, under Options.Flows, every recorded flow.
func (r *Recorder) Done(flow uint64, score float64) {
	if r == nil || r.only != nil {
		return
	}
	i := sort.Search(len(r.worst), func(i int) bool { return r.worst[i].score < score })
	r.worst = slices.Insert(r.worst, i, doneFlow{flow, score})
	if len(r.worst) <= r.keep {
		return
	}
	floor := r.worst[r.keep-1].score
	for last := len(r.worst) - 1; r.worst[last].score < floor; last-- {
		out := r.worst[last].flow
		if l := r.flows[out]; l != nil {
			*l = flowLog{recs: l.recs[:0]}
			r.free = append(r.free, l)
			r.flows[out] = released
		}
		r.worst = r.worst[:last]
	}
}

// HopEnqueue implements netem.HopObserver.
func (r *Recorder) HopEnqueue(now sim.Time, p *netem.Port, queue int, pkt *netem.Packet, qBytes int64) {
	if r == nil {
		return
	}
	if l := r.log(pkt.Flow); l != nil {
		l.add(r.hopCap, HopRecord{
			At: now, Port: p.Name(), Queue: queue, Ev: HopEnq,
			Kind: pkt.Kind, Seq: pkt.Seq, Color: pkt.Color, QBytes: qBytes,
		})
	}
}

// HopDequeue implements netem.HopObserver.
func (r *Recorder) HopDequeue(now sim.Time, p *netem.Port, queue int, pkt *netem.Packet, waited, tx sim.Time) {
	if r == nil {
		return
	}
	if l := r.log(pkt.Flow); l != nil {
		l.add(r.hopCap, HopRecord{
			At: now, Port: p.Name(), Queue: queue, Ev: HopDeq,
			Kind: pkt.Kind, Seq: pkt.Seq, Color: pkt.Color, Wait: waited, Tx: tx,
		})
	}
}

// HopDrop implements netem.HopObserver.
func (r *Recorder) HopDrop(now sim.Time, p *netem.Port, queue int, pkt *netem.Packet, reason netem.DropReason) {
	if r == nil {
		return
	}
	if l := r.log(pkt.Flow); l != nil {
		l.add(r.hopCap, HopRecord{
			At: now, Port: p.Name(), Queue: queue, Ev: HopDrop,
			Kind: pkt.Kind, Seq: pkt.Seq, Color: pkt.Color, Reason: reason,
		})
	}
}

// Flows returns the recorded flow IDs in first-seen order.
func (r *Recorder) Flows() []uint64 {
	if r == nil {
		return nil
	}
	out := make([]uint64, len(r.order))
	copy(out, r.order)
	return out
}

// Hops returns flow's retained hop records in chronological order.
func (r *Recorder) Hops(flow uint64) []HopRecord {
	if r == nil {
		return nil
	}
	l := r.flows[flow]
	if l == nil {
		return nil
	}
	return l.events()
}

// HopsDropped reports how many of flow's records the per-flow cap displaced.
func (r *Recorder) HopsDropped(flow uint64) int64 {
	if r == nil || r.flows[flow] == nil {
		return 0
	}
	return r.flows[flow].dropped
}

// Skipped reports records not kept because of the flow-count cap.
func (r *Recorder) Skipped() int64 {
	if r == nil {
		return 0
	}
	return r.skipped
}

// HopDelay aggregates a flow's queueing behaviour at one port.
type HopDelay struct {
	Port      string
	Dequeues  int64
	Drops     int64
	TotalWait sim.Time
	MaxWait   sim.Time
}

// Timeline is one flow's assembled forensic record.
type Timeline struct {
	Flow      uint64
	Transport string
	Size      int64
	Start     sim.Time
	FCT       sim.Time // -1 when incomplete
	Slowdown  float64  // FCT / ideal FCT estimate (0 if unknown)

	Hops        []HopRecord
	HopsDropped int64
	PerHop      []HopDelay    // per-port aggregation, first-traversed order
	Events      []trace.Event // transport lifecycle events for this flow
}

// Timeline assembles flow fl's timeline from the recorder's hop records
// and the transport trace ring (either may be empty/nil).
func (r *Recorder) Timeline(fl *transport.Flow, ring *trace.Ring) *Timeline {
	t := &Timeline{
		Flow:      fl.ID,
		Transport: fl.Transport,
		Size:      fl.Size,
		Start:     fl.Start,
		FCT:       fl.FCT(),
	}
	t.Hops = r.Hops(fl.ID)
	t.HopsDropped = r.HopsDropped(fl.ID)
	t.PerHop = aggregate(t.Hops)
	if ring != nil {
		t.Events = ring.Filter(func(ev trace.Event) bool { return ev.Flow == fl.ID })
	}
	return t
}

// aggregate folds hop records into per-port delay summaries, keeping
// ports in first-traversed order.
func aggregate(hops []HopRecord) []HopDelay {
	idx := map[string]int{}
	var out []HopDelay
	at := func(port string) *HopDelay {
		i, ok := idx[port]
		if !ok {
			i = len(out)
			idx[port] = i
			out = append(out, HopDelay{Port: port})
		}
		return &out[i]
	}
	for _, h := range hops {
		switch h.Ev {
		case HopDeq:
			d := at(h.Port)
			d.Dequeues++
			d.TotalWait += h.Wait
			if h.Wait > d.MaxWait {
				d.MaxWait = h.Wait
			}
		case HopDrop:
			at(h.Port).Drops++
		}
	}
	return out
}

// Export converts the timeline to its artifact form.
func (t *Timeline) Export() obs.TimelineData {
	td := obs.TimelineData{
		Flow:        t.Flow,
		Transport:   t.Transport,
		Size:        t.Size,
		StartPs:     int64(t.Start),
		FctPs:       int64(t.FCT),
		Slowdown:    t.Slowdown,
		HopsDropped: t.HopsDropped,
	}
	for _, h := range t.Hops {
		hd := obs.HopData{
			AtPs: int64(h.At), Port: h.Port, Queue: h.Queue,
			Event: h.Ev.String(), Kind: h.Kind.String(), Seq: h.Seq,
		}
		if h.Color != 0 {
			hd.Color = h.Color.String()
		}
		switch h.Ev {
		case HopDeq:
			hd.WaitPs = int64(h.Wait)
			hd.TxPs = int64(h.Tx)
		case HopEnq:
			hd.QueueBytes = h.QBytes
		case HopDrop:
			hd.Reason = h.Reason.String()
		}
		td.Hops = append(td.Hops, hd)
	}
	for _, d := range t.PerHop {
		td.Delays = append(td.Delays, obs.HopDelayData{
			Port: d.Port, Dequeues: d.Dequeues, Drops: d.Drops,
			TotalWaitPs: int64(d.TotalWait), MaxWaitPs: int64(d.MaxWait),
		})
	}
	for _, ev := range t.Events {
		td.Events = append(td.Events, obs.TraceData{
			AtPs: int64(ev.At), Kind: ev.Kind.String(),
			Flow: ev.Flow, Seq: ev.Seq, Note: ev.Note,
		})
	}
	return td
}

// Dump writes a human-readable rendering of the timeline.
func (t *Timeline) Dump(w io.Writer) error {
	fct := "incomplete"
	if t.FCT >= 0 {
		fct = t.FCT.String()
	}
	if _, err := fmt.Fprintf(w, "flow %d %s size=%dB start=%v fct=%s slowdown=%.2f\n",
		t.Flow, t.Transport, t.Size, t.Start, fct, t.Slowdown); err != nil {
		return err
	}
	if len(t.PerHop) > 0 {
		fmt.Fprintf(w, "  per-hop queueing delay:\n")
		for _, d := range t.PerHop {
			avg := sim.Time(0)
			if d.Dequeues > 0 {
				avg = d.TotalWait / sim.Time(d.Dequeues)
			}
			fmt.Fprintf(w, "    %-28s %5d pkts  avg %-10v max %-10v drops %d\n",
				d.Port, d.Dequeues, avg, d.MaxWait, d.Drops)
		}
	}
	for _, ev := range t.Events {
		fmt.Fprintf(w, "  %12v %-12s seq=%d %s\n", ev.At, ev.Kind, ev.Seq, ev.Note)
	}
	return nil
}

// Report is the harness-facing result of a forensic run: auditor
// findings plus exported timelines.
type Report struct {
	Violations        []Violation
	ViolationsDropped int64
	Timelines         []*Timeline
}

// Export converts the report to artifact lines (violations first).
func (r *Report) Export() []obs.ForensicsData {
	if r == nil {
		return nil
	}
	out := make([]obs.ForensicsData, 0, len(r.Violations)+len(r.Timelines))
	for _, v := range r.Violations {
		vd := v.Export()
		out = append(out, obs.ForensicsData{Violation: &vd})
	}
	for _, t := range r.Timelines {
		td := t.Export()
		out = append(out, obs.ForensicsData{Timeline: &td})
	}
	return out
}

// WorstTimelines builds timelines for the opts.Timelines worst-slowdown
// flows (plus every flow in opts.Flows, regardless of rank). slowdown
// estimates a flow's ideal-relative completion cost; incomplete flows
// rank worst of all.
func WorstTimelines(rec *Recorder, ring *trace.Ring, flows []*transport.Flow,
	slowdown func(*transport.Flow) float64, opts *Options) []*Timeline {
	if rec == nil || len(flows) == 0 {
		return nil
	}
	n := opts.timelines()
	var must []uint64
	if opts != nil {
		must = opts.Flows
	}
	type ranked struct {
		fl    *transport.Flow
		score float64
	}
	var rs []ranked
	for _, fl := range flows {
		s := slowdown(fl)
		if !fl.Completed {
			// Incomplete flows are the prime forensic suspects.
			s = 1e18 + float64(fl.Size-fl.RxBytes)
		}
		rs = append(rs, ranked{fl, s})
	}
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].score > rs[j].score })
	want := map[uint64]bool{}
	for _, id := range must {
		want[id] = true
	}
	var out []*Timeline
	taken := map[uint64]bool{}
	add := func(fl *transport.Flow, score float64) {
		if taken[fl.ID] {
			return
		}
		taken[fl.ID] = true
		t := rec.Timeline(fl, ring)
		if fl.Completed {
			t.Slowdown = score
		}
		out = append(out, t)
	}
	for _, r := range rs {
		if len(out) >= n {
			break
		}
		add(r.fl, r.score)
	}
	for _, r := range rs {
		if want[r.fl.ID] {
			add(r.fl, r.score)
		}
	}
	return out
}
