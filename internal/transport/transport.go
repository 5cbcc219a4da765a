// Package transport provides the endpoint framework shared by all
// transports in the repository: per-host demultiplexing, flow descriptors,
// and completion accounting.
package transport

import (
	"flexpass/internal/netem"
	"flexpass/internal/obs"
	"flexpass/internal/sim"
)

// Endpoint handles packets of one flow at one host.
type Endpoint interface {
	Handle(pkt *netem.Packet)
}

// Flows is a run's flow table, shared by every agent of the run: the flow
// with ID i (runner-assigned, 1..N) is Flows[i-1]; a nil entry is an ID no
// flow holds. Agents resolve a packet's flow through it, so the endpoints
// live on the Flow and no host keeps a table of its own.
type Flows []*Flow

// Add puts fl at its ID's place, growing the table, and returns fl.
func (t *Flows) Add(fl *Flow) *Flow {
	for uint64(len(*t)) < fl.ID {
		*t = append(*t, nil)
	}
	(*t)[fl.ID-1] = fl
	return fl
}

// Agent owns a host's receive path and demultiplexes packets to the
// endpoint of their flow that lives on this host.
type Agent struct {
	Host *netem.Host
	Eng  *sim.Engine
	// Flows is the run's flow table, shared with every other agent.
	Flows *Flows

	// Strays counts packets that arrived for no started endpoint on this
	// host and were dropped (an unknown flow, a flow this host is not an
	// end of, or an end that has not started).
	Strays int64

	stray *obs.Counter
}

// NewAgent installs an agent on h that demultiplexes through flows.
func NewAgent(eng *sim.Engine, h *netem.Host, flows *Flows) *Agent {
	a := new(Agent)
	a.Install(eng, h, flows)
	return a
}

// Install makes a the agent of h, demultiplexing through flows, as
// NewAgent does for an agent of its own: a runner keeps a run's agents
// by value in one array.
func (a *Agent) Install(eng *sim.Engine, h *netem.Host, flows *Flows) {
	*a = Agent{Host: h, Eng: eng, Flows: flows}
	h.SetHandler(a.dispatch)
}

// ObserveStrays bills this agent's stray-packet drops to c (typically one
// run-wide counter shared across agents; nil detaches).
func (a *Agent) ObserveStrays(c *obs.Counter) { a.stray = c }

func (a *Agent) dispatch(pkt *netem.Packet) {
	if ep := a.endpoint(pkt.Flow); ep != nil {
		ep.Handle(pkt)
		return
	}
	// Packets for unknown flows are dropped, as a real stack would
	// RST/ignore — but counted, so a mis-wired experiment is visible in
	// telemetry.
	a.Strays++
	a.stray.Inc()
}

// endpoint returns this host's started end of flow id, or nil. It reads
// only the Flow's immutable ends and the one endpoint field this host's
// plane writes.
func (a *Agent) endpoint(id uint64) Endpoint {
	t := *a.Flows
	if id-1 >= uint64(len(t)) || t[id-1] == nil { // id 0 wraps
		return nil
	}
	switch fl := t[id-1]; a {
	case fl.Src:
		return fl.Sender
	case fl.Dst:
		return fl.Receiver
	}
	return nil
}

// Flow describes one application flow and accumulates its statistics.
// Transports share this struct: the sender updates the send-side counters
// and the receiver the receive side.
type Flow struct {
	ID    uint64
	Src   *Agent
	Dst   *Agent
	Size  int64 // application bytes
	Start sim.Time

	// Transport labels the transport ("dctcp", "expresspass", "flexpass",
	// ...); Legacy tells legacy traffic apart from upgraded traffic in the
	// deployment studies.
	Transport string
	Legacy    bool

	// The flow's two endpoints, nil until each half starts. The sender
	// half sets Sender on the source host's plane and the receiver half
	// sets Receiver on the destination's, and each host's agent reads only
	// its own end's, so no plane writes what another reads.
	Sender, Receiver Endpoint

	// Live receive-side counters (sampled for throughput time series).
	RxBytes    int64
	RxBytesPro int64 // bytes delivered via the proactive sub-flow
	RxBytesRe  int64 // bytes delivered via the reactive sub-flow

	// Completion.
	Completed  bool
	Done       sim.Time
	OnComplete func(*Flow)

	// Send-side counters.
	Timeouts       int   // RTO firings
	Retransmits    int   // segments retransmitted after loss detection
	RedundantSegs  int   // duplicate segments discarded at the receiver
	ProRetx        int   // FlexPass proactive retransmissions sent
	MaxReorderB    int64 // receiver reordering-buffer high-water mark, bytes
	CreditsWasted  int   // credits that arrived with nothing to send
	CreditsGranted int   // credits received
}

// Segs returns the number of MTU segments the flow occupies.
func (f *Flow) Segs() int {
	n := int((f.Size + netem.DataPayload - 1) / netem.DataPayload)
	if n == 0 {
		n = 1
	}
	return n
}

// SegPayload returns the application bytes of segment seq.
func (f *Flow) SegPayload(seq int) int {
	last := f.Segs() - 1
	if seq < last {
		return netem.DataPayload
	}
	rem := int(f.Size - int64(last)*netem.DataPayload)
	if rem <= 0 {
		rem = netem.DataPayload
	}
	return rem
}

// SegWire returns the wire size of segment seq.
func (f *Flow) SegWire(seq int) int { return netem.FrameBytes(f.SegPayload(seq)) }

// Complete marks the flow done at time t (idempotent) and fires the
// completion callback.
func (f *Flow) Complete(t sim.Time) {
	if f.Completed {
		return
	}
	f.Completed = true
	f.Done = t
	if f.OnComplete != nil {
		f.OnComplete(f)
	}
}

// FCT returns the flow completion time, or -1 if not completed.
func (f *Flow) FCT() sim.Time {
	if !f.Completed {
		return -1
	}
	return f.Done - f.Start
}
