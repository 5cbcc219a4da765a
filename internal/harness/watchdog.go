package harness

import (
	"fmt"
	"time"

	"flexpass/internal/sim"
)

// KilledError is the panic value Run raises when a scenario limit
// trips: the wall-clock Deadline elapsed, or an engine's clock stopped
// advancing for StallTimeout (a livelocked run). The engines decide it
// themselves, at their watch poll (sim.Kill). Callers that supervise
// runs — the farm's point executor, the chaos soak runner — get it back
// from Try as the error and classify the failure by Reason instead of
// string matching.
type KilledError struct {
	Reason    string        // "deadline" or "stall"
	Elapsed   time.Duration // wall clock from run start to the kill
	HorizonPs int64         // fleet-minimum engine clock at the kill, picoseconds
	Events    uint64        // events dispatched when killed
}

func (e *KilledError) Error() string {
	return fmt.Sprintf("harness: run killed by %s watchdog after %v (horizon %v ps, %d events)",
		e.Reason, e.Elapsed.Round(time.Millisecond), e.HorizonPs, e.Events)
}

// fleet is the run's progress cells, one sim.Watch per engine: what the
// live board reads from outside the engine goroutines, and where a kill
// reads the progress its engines stopped at.
type fleet []*sim.Watch

// horizonPs is the fleet-minimum published engine clock: the simulated
// time every engine has reached.
func (f fleet) horizonPs() int64 {
	min := f[0].NowPs()
	for _, w := range f[1:] {
		if h := w.NowPs(); h < min {
			min = h
		}
	}
	return min
}

// events sums the engines' published dispatch counts.
func (f fleet) events() uint64 {
	var n uint64
	for _, w := range f {
		n += w.Events()
	}
	return n
}
