// Package dctcp implements the DCTCP congestion control algorithm
// (Alizadeh et al., SIGCOMM 2010) at packet granularity, with per-packet
// ACKs and selective loss marking. It provides both complete sender and
// receiver endpoints for legacy traffic, and a reusable Window type that
// FlexPass's reactive sub-flow and the layering scheme embed.
package dctcp

// InitCwnd is the initial window, in segments, of every window-clocked
// sender: DCTCP's, LY's and FlexPass's reactive sub-flow (§6.2).
const InitCwnd = 10

// Window is the DCTCP congestion window state machine, counted in
// segments. Sequence arguments are per-sub-flow segment indices.
type Window struct {
	Cwnd     float64 // congestion window, segments
	Ssthresh float64
	Alpha    float64 // EWMA of the marked fraction
	G        float64 // EWMA gain (paper: 1/16)
	MinCwnd  float64

	acks, marks int
	alphaEdge   int // alpha refresh when cumAck passes this sub-flow seq
	reduceEdge  int // at most one multiplicative decrease per window
}

// NewWindow returns a window starting at initCwnd segments, in slow start;
// its owner keeps it by value.
func NewWindow(initCwnd float64) Window {
	return Window{
		Cwnd:     initCwnd,
		Ssthresh: 1 << 30,
		Alpha:    1, // standard conservative initialization
		G:        1.0 / 16,
		MinCwnd:  1,
	}
}

// OnAck processes one ACK acknowledging one segment. cumAck is the
// receiver's cumulative in-order count, sndNxt the sender's next fresh
// sub-flow sequence, and ce whether the ACK echoes a CE mark.
func (w *Window) OnAck(cumAck, sndNxt int, ce bool) {
	w.acks++
	if ce {
		w.marks++
	}
	if cumAck >= w.alphaEdge {
		f := float64(w.marks) / float64(w.acks)
		w.Alpha = (1-w.G)*w.Alpha + w.G*f
		w.acks, w.marks = 0, 0
		w.alphaEdge = sndNxt
	}
	if ce {
		if cumAck >= w.reduceEdge {
			w.Cwnd *= 1 - w.Alpha/2
			if w.Cwnd < w.MinCwnd {
				w.Cwnd = w.MinCwnd
			}
			w.Ssthresh = w.Cwnd
			w.reduceEdge = sndNxt
		}
		return
	}
	if w.Cwnd < w.Ssthresh {
		w.Cwnd++
	} else {
		w.Cwnd += 1 / w.Cwnd
	}
}

// OnLoss applies the fast-retransmit window reduction (at most once per
// window).
func (w *Window) OnLoss(cumAck, sndNxt int) {
	if cumAck < w.reduceEdge {
		return
	}
	w.Ssthresh = w.Cwnd / 2
	if w.Ssthresh < w.MinCwnd {
		w.Ssthresh = w.MinCwnd
	}
	w.Cwnd = w.Ssthresh
	w.reduceEdge = sndNxt
}

// OnTimeout collapses the window after an RTO.
func (w *Window) OnTimeout() {
	w.Ssthresh = w.Cwnd / 2
	if w.Ssthresh < 2 {
		w.Ssthresh = 2
	}
	w.Cwnd = w.MinCwnd
}
