package flexpass

import "fmt"

// The paper's §4.3 leaves "applying other reactive congestion control
// algorithms for the reactive sub-flow" as future work. Besides DCTCP
// (the paper's choice), the reactive sub-flow runs loss-based Reno — a
// natural fit for FlexPass because selective dropping already converts
// "no spare bandwidth" into reactive packet loss, no ECN needed. Reno
// is the DCTCP window fed non-ECT data: such data is never marked, so no
// reactive ACK echoes CE, and without CE the DCTCP window's slow start,
// additive increase, halving on loss and collapse on timeout are Reno's.

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

// reactiveECT reports whether the algorithm's reactive data is
// ECN-capable, and panics on a name it does not know.
func reactiveECT(algo ReactiveCC) bool {
	switch algo {
	case "", ReactiveDCTCP:
		return true
	case ReactiveReno:
		return false
	}
	panic(fmt.Sprintf("flexpass: unknown reactive algorithm %q", algo))
}
