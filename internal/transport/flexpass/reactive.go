package flexpass

import (
	"fmt"

	"flexpass/internal/transport/dctcp"
)

// The paper's §4.3 leaves "applying other reactive congestion control
// algorithms for the reactive sub-flow" as future work. This file
// provides that extension point: the reactive sub-flow's window logic is
// behind a small interface, with DCTCP (the paper's choice) and a
// Reno-style loss-based variant implemented. The loss-based variant is a
// natural fit for FlexPass because selective dropping already converts
// "no spare bandwidth" into reactive packet loss — no ECN needed.

// ReactiveCC names a reactive-sub-flow congestion control algorithm.
type ReactiveCC string

// Available reactive algorithms.
const (
	// ReactiveDCTCP is the paper's choice: ECN-driven window scaling.
	ReactiveDCTCP ReactiveCC = "dctcp"
	// ReactiveReno is loss-based AIMD: additive increase, halve on loss,
	// ECN marks ignored (the reactive packets are sent not-ECN-capable).
	ReactiveReno ReactiveCC = "reno"
)

// reactiveWindow abstracts the reactive sub-flow's congestion window.
type reactiveWindow interface {
	OnAck(cumAck, sndNxt int, ce bool)
	OnLoss(cumAck, sndNxt int)
	OnTimeout()
	Cwnd() float64
}

// initReactiveWindow starts the configured algorithm in the window value
// the sender holds for it.
func (s *Sender) initReactiveWindow() {
	switch s.cfg.Reactive {
	case "", ReactiveDCTCP:
		s.dwin = dctcpWindow{dctcp.NewWindow(s.cfg.InitCwnd)}
		s.win = &s.dwin
	case ReactiveReno:
		s.rwin = renoWindow{cwnd: s.cfg.InitCwnd, ssthresh: 1 << 30}
		s.win = &s.rwin
	default:
		panic(fmt.Sprintf("flexpass: unknown reactive algorithm %q", s.cfg.Reactive))
	}
}

// ecnCapableFor reports whether reactive data should be ECT for the
// algorithm (loss-based Reno ignores marks, so its packets are non-ECT
// and simply ride the red-drop signal).
func ecnCapableFor(algo ReactiveCC) bool {
	return algo == "" || algo == ReactiveDCTCP
}

// dctcpWindow adapts dctcp.Window to the interface.
type dctcpWindow struct{ dctcp.Window }

func (w *dctcpWindow) Cwnd() float64 { return w.Window.Cwnd }

// renoWindow is plain AIMD at packet granularity.
type renoWindow struct {
	cwnd       float64
	ssthresh   float64
	reduceEdge int
}

func (w *renoWindow) Cwnd() float64 { return w.cwnd }

func (w *renoWindow) OnAck(cumAck, sndNxt int, ce bool) {
	// Loss-based: CE is ignored by design.
	if w.cwnd < w.ssthresh {
		w.cwnd++
	} else {
		w.cwnd += 1 / w.cwnd
	}
}

func (w *renoWindow) OnLoss(cumAck, sndNxt int) {
	if cumAck < w.reduceEdge {
		return
	}
	w.ssthresh = w.cwnd / 2
	if w.ssthresh < 1 {
		w.ssthresh = 1
	}
	w.cwnd = w.ssthresh
	w.reduceEdge = sndNxt
}

func (w *renoWindow) OnTimeout() {
	w.ssthresh = w.cwnd / 2
	if w.ssthresh < 2 {
		w.ssthresh = 2
	}
	w.cwnd = 1
}
