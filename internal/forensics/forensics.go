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

	// StarveAfter is how long a started, incomplete flow may go without
	// receiving a byte before the starvation watchdog flags it.
	// Default 10ms.
	StarveAfter sim.Time

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

func (o *Options) starveAfter() sim.Time {
	if o == nil || o.StarveAfter <= 0 {
		return 10 * sim.Millisecond
	}
	return o.StarveAfter
}

// hopEvent says what happened to a packet at a port.
type hopEvent uint8

// Hop events, named in the artifact by hopEvents.
const (
	hopEnq hopEvent = iota
	hopDeq
	hopDrop
)

var hopEvents = [...]string{"enq", "deq", "drop"}

// hop is the recorder's form of an obs.HopData: it holds no pointer and
// no string, so a block of them is one allocation the garbage collector
// never scans. port indexes the recorder's port table; val is the wait on
// a dequeue and the queue occupancy on an enqueue.
type hop struct {
	at, val, tx sim.Time
	port, seq   uint32
	queue       int16
	ev          hopEvent
	kind        netem.Kind
	color       netem.Color
	reason      netem.DropReason
}

// blockLen is how many records one log block holds (10 KB): enough that a
// long flow's ring is a few blocks, few enough that a short flow does not
// hold much more than it records.
const blockLen = 256

// noBlock ends a chain of blocks.
const noBlock = -1

// flowLog is one flow's ring of hop records, the newest HopCap of them. It
// is a chain of blocks taken from the recorder's free list as the ring
// fills, and it wraps in place once full.
type flowLog struct {
	flow      uint64
	head, cur int32 // first block of the chain, and the one slot is in
	slot      int32 // ring position of the next record
	n         int64 // records ever added
}

// released marks, in the flow table, a flow whose log was given up (see
// Recorder.Done): the flow still counts against MaxFlows and keeps its
// place in the first-seen order, and nothing is recorded for it again.
const released = -1

// Recorder implements netem.HopObserver, bucketing hop records per flow.
// A nil *Recorder is a valid no-op observer component, but note that
// installing a nil Recorder via netem.SetHopObserver still costs an
// interface dispatch per packet event — leave the observer unset to pay
// nothing.
type Recorder struct {
	hopCap   int
	maxFlows int
	only     map[uint64]struct{}
	flows    []int32   // by flow ID (the runner's dense 1..N): 0 unseen, released, or 1 + index in logs
	logs     []flowLog // first-seen order: deterministic iteration
	skipped  int64     // records not kept (flow cap / filter overflow)

	// Every block made, by number, and the next block after each in its
	// log's chain or in the free list. A block holds blockLen records, or
	// HopCap when that is fewer.
	blocks   [][]hop
	next     []int32
	free     int32
	blockLen int

	// The port table: ports by index, and 1 + index by Port.Rank.
	ports  []*netem.Port
	byRank []uint32

	// Completed flows WorstTimelines may still pick: the keep best
	// scores reported to Done, best first, with every tie for the last
	// place. The blocks of the rest go back to the free list.
	keep  int
	worst []doneFlow
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
		free:     noBlock,
		keep:     opts.timelines(),
	}
	r.blockLen = min(blockLen, r.hopCap)
	if opts != nil && len(opts.Flows) > 0 {
		r.only = make(map[uint64]struct{}, len(opts.Flows))
		for _, f := range opts.Flows {
			r.only[f] = struct{}{}
		}
	}
	return r
}

// recorded returns flow's log, or nil when it has none: not seen yet,
// released, or a nil recorder.
func (r *Recorder) recorded(flow uint64) *flowLog {
	if r == nil || flow >= uint64(len(r.flows)) || r.flows[flow] <= 0 {
		return nil
	}
	return &r.logs[r.flows[flow]-1]
}

// log returns the log flow's next record goes to, starting one for a new
// flow, or nil when the flow is not recorded.
func (r *Recorder) log(flow uint64) *flowLog {
	if r.only != nil {
		if _, ok := r.only[flow]; !ok {
			return nil
		}
	}
	if flow < uint64(len(r.flows)) {
		switch i := r.flows[flow]; {
		case i == released:
			return nil
		case i > 0:
			return &r.logs[i-1]
		}
	}
	if len(r.logs) >= r.maxFlows {
		r.skipped++
		return nil
	}
	// The table never shrinks, so what lies past its length is still zero.
	if n := int(flow) + 1; n > len(r.flows) {
		r.flows = slices.Grow(r.flows, n-len(r.flows))[:n]
	}
	r.logs = append(r.logs, flowLog{flow: flow, head: noBlock})
	r.flows[flow] = int32(len(r.logs))
	return &r.logs[len(r.logs)-1]
}

// add writes h at l's ring position, taking a block for it while the
// ring is still filling.
func (r *Recorder) add(l *flowLog, h hop) {
	off := int(l.slot) % r.blockLen
	if off == 0 {
		switch {
		case l.slot == 0 && l.n > 0: // wrapped
			l.cur = l.head
		case l.n >= int64(r.hopCap): // the ring is full: its next block
			l.cur = r.next[l.cur]
		case l.n == 0:
			l.head = r.take()
			l.cur = l.head
		default:
			b := r.take()
			r.next[l.cur], l.cur = b, b
		}
	}
	r.blocks[l.cur][off] = h
	l.n++
	if l.slot++; int(l.slot) == r.hopCap {
		l.slot = 0
	}
}

// take returns a free block, or a new one.
func (r *Recorder) take() int32 {
	if b := r.free; b != noBlock {
		r.free, r.next[b] = r.next[b], noBlock
		return b
	}
	r.blocks = append(r.blocks, make([]hop, r.blockLen))
	r.next = append(r.next, noBlock)
	return int32(len(r.blocks) - 1)
}

// port returns p's index in the port table, adding it on first sight.
// Ranks are dense inside a Network; ports outside one all have rank 1,
// so a rank whose entry is another port falls back to a scan.
func (r *Recorder) port(p *netem.Port) uint32 {
	rank := p.Rank()
	if n := int(rank) + 1; n > len(r.byRank) {
		r.byRank = slices.Grow(r.byRank, n-len(r.byRank))[:n]
	}
	i := r.byRank[rank]
	if i != 0 {
		if r.ports[i-1] == p {
			return i - 1
		}
		if j := slices.Index(r.ports, p); j >= 0 {
			return uint32(j)
		}
	}
	r.ports = append(r.ports, p)
	if i == 0 {
		r.byRank[rank] = uint32(len(r.ports))
	}
	return uint32(len(r.ports) - 1)
}

// record expands h to its artifact form.
func (r *Recorder) record(h *hop) obs.HopData {
	hd := obs.HopData{
		AtPs: int64(h.at), Port: r.ports[h.port].Name(), Queue: int(h.queue),
		Event: hopEvents[h.ev], Kind: h.kind.String(), Seq: h.seq,
	}
	if h.color != 0 {
		hd.Color = h.color.String()
	}
	switch h.ev {
	case hopDeq:
		hd.WaitPs, hd.TxPs = int64(h.val), int64(h.tx)
	case hopEnq:
		hd.QueueBytes = int64(h.val)
	case hopDrop:
		hd.Reason = h.reason.String()
	}
	return hd
}

// each visits l's retained records, oldest first.
func (r *Recorder) each(l *flowLog, f func(*hop)) {
	held, start := l.n, 0
	if held >= int64(r.hopCap) {
		held, start = int64(r.hopCap), int(l.slot)
	}
	b := l.head
	for range start / r.blockLen {
		b = r.next[b]
	}
	for k := start; held > 0; held-- {
		f(&r.blocks[b][k%r.blockLen])
		if k++; k == r.hopCap {
			k, b = 0, l.head
		} else if k%r.blockLen == 0 {
			b = r.next[b]
		}
	}
}

// Done tells the recorder that flow completed with the given slowdown
// score — the score WorstTimelines will rank it by. A completed flow's
// score never changes and the keep-th best completed score only rises,
// so a flow strictly below it can never be exported: its log is released
// and its blocks go to the next new records. Ties for the last place are
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
		if l := r.recorded(out); l != nil {
			for b := l.head; b != noBlock; {
				b, r.next[b], r.free = r.next[b], r.free, b
			}
			*l = flowLog{flow: out, head: noBlock}
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
		r.add(l, hop{
			at: now, val: sim.Time(qBytes), port: r.port(p), queue: int16(queue), ev: hopEnq,
			kind: pkt.Kind, seq: pkt.Seq, color: pkt.Color,
		})
	}
}

// HopDequeue implements netem.HopObserver.
func (r *Recorder) HopDequeue(now sim.Time, p *netem.Port, queue int, pkt *netem.Packet, waited, tx sim.Time) {
	if r == nil {
		return
	}
	if l := r.log(pkt.Flow); l != nil {
		r.add(l, hop{
			at: now, val: waited, tx: tx, port: r.port(p), queue: int16(queue), ev: hopDeq,
			kind: pkt.Kind, seq: pkt.Seq, color: pkt.Color,
		})
	}
}

// HopDrop implements netem.HopObserver.
func (r *Recorder) HopDrop(now sim.Time, p *netem.Port, queue int, pkt *netem.Packet, reason netem.DropReason) {
	if r == nil {
		return
	}
	if l := r.log(pkt.Flow); l != nil {
		r.add(l, hop{
			at: now, port: r.port(p), queue: int16(queue), ev: hopDrop,
			kind: pkt.Kind, seq: pkt.Seq, color: pkt.Color, reason: reason,
		})
	}
}

// Flows returns the recorded flow IDs in first-seen order.
func (r *Recorder) Flows() []uint64 {
	if r == nil {
		return nil
	}
	out := make([]uint64, len(r.logs))
	for i := range r.logs {
		out[i] = r.logs[i].flow
	}
	return out
}

// Hops returns flow's retained hop records in chronological order.
func (r *Recorder) Hops(flow uint64) []obs.HopData {
	l := r.recorded(flow)
	if l == nil {
		return nil
	}
	hops, _ := r.timeline(l)
	return hops
}

// HopsDropped reports how many of flow's records the per-flow cap displaced.
func (r *Recorder) HopsDropped(flow uint64) int64 {
	l := r.recorded(flow)
	if l == nil {
		return 0
	}
	return max(l.n-int64(r.hopCap), 0)
}

// Skipped reports records not kept because of the flow-count cap.
func (r *Recorder) Skipped() int64 {
	if r == nil {
		return 0
	}
	return r.skipped
}

// Timeline assembles flow fl's timeline from the recorder's hop records
// and the transport trace ring (either may be empty/nil).
func (r *Recorder) Timeline(fl *transport.Flow, ring *trace.Ring) obs.TimelineData {
	t := obs.TimelineData{
		Flow:      fl.ID,
		Transport: fl.Transport,
		Size:      fl.Size,
		StartPs:   int64(fl.Start),
		FctPs:     int64(fl.FCT()),
	}
	if l := r.recorded(fl.ID); l != nil {
		t.Hops, t.Delays = r.timeline(l)
		t.HopsDropped = r.HopsDropped(fl.ID)
	}
	ring.Each(func(ev trace.Event) {
		if ev.Flow == fl.ID {
			t.Events = append(t.Events, obs.TraceOf(ev))
		}
	})
	return t
}

// timeline expands l's records and folds them into per-port delay
// summaries, keeping ports in first-traversed order.
func (r *Recorder) timeline(l *flowLog) ([]obs.HopData, []obs.HopDelayData) {
	hops := make([]obs.HopData, 0, min(l.n, int64(r.hopCap)))
	var delays []obs.HopDelayData
	at := make([]int32, len(r.ports)) // 1 + index in delays, by port index
	delay := func(h *hop) *obs.HopDelayData {
		if at[h.port] == 0 {
			delays = append(delays, obs.HopDelayData{Port: r.ports[h.port].Name()})
			at[h.port] = int32(len(delays))
		}
		return &delays[at[h.port]-1]
	}
	r.each(l, func(h *hop) {
		hops = append(hops, r.record(h))
		switch h.ev {
		case hopDeq:
			d := delay(h)
			d.Dequeues++
			d.TotalWaitPs += int64(h.val)
			d.MaxWaitPs = max(d.MaxWaitPs, int64(h.val))
		case hopDrop:
			delay(h).Drops++
		}
	})
	return hops, delays
}

// Report is the harness-facing result of a forensic run: auditor
// findings plus exported timelines.
type Report struct {
	Violations        []obs.ViolationData
	ViolationsDropped int64
	Timelines         []obs.TimelineData
}

// Export interleaves the report into artifact lines (violations first).
func (r *Report) Export() []obs.ForensicsData {
	if r == nil {
		return nil
	}
	out := make([]obs.ForensicsData, 0, len(r.Violations)+len(r.Timelines))
	for i := range r.Violations {
		out = append(out, obs.ForensicsData{Violation: &r.Violations[i]})
	}
	for i := range r.Timelines {
		out = append(out, obs.ForensicsData{Timeline: &r.Timelines[i]})
	}
	return out
}

// WorstTimelines builds timelines for the opts.Timelines worst-slowdown
// flows (plus every flow in opts.Flows, regardless of rank). slowdown
// estimates a flow's ideal-relative completion cost; incomplete flows
// rank worst of all.
func WorstTimelines(rec *Recorder, ring *trace.Ring, flows []*transport.Flow,
	slowdown func(*transport.Flow) float64, opts *Options) []obs.TimelineData {
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
	var out []obs.TimelineData
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
