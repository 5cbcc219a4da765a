package harness

import (
	"math/rand"
	"testing"

	"flexpass/internal/sim"
	"flexpass/internal/transport"
	"flexpass/internal/workload"
)

// BenchmarkFlowStart measures what a flow costs, per transport: 8 kB
// flows on TestFlowAllocBudget's fabric at full deployment, each started
// through Session.StartFlow and run for the 10 µs until the next starts,
// so a flow's set-up is its endpoints, carved from its plane's arenas
// (their engine events are the endpoints themselves), and its run the
// few dozen events an 8 kB flow takes. With -benchmem (make bench-hot),
// allocs/op is one flow's heap objects: TestFlowAllocBudget's count plus
// the session's own per-flow two, the Flow and the closure of its start
// event.
func BenchmarkFlowStart(b *testing.B) {
	const gap = 10 * sim.Microsecond
	for _, name := range []string{transport.SchemeDCTCP, transport.SchemeExpressPass,
		transport.SchemeFlexPass, transport.SchemeHoma, transport.SchemePHost} {
		b.Run(name, func(b *testing.B) {
			sc := shardScenario(Scheme(name), 0)
			sc.Deployment = 1
			sc.TraceFlows = []workload.FlowSpec{}
			s := Open(sc)
			r := rand.New(rand.NewSource(5))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				at := sim.Time(i) * gap
				src := r.Intn(8)
				s.StartFlow(at, name, src, (src+1+r.Intn(7))%8, 8000)
				s.Run(at + gap)
			}
			b.StopTimer()
			s.Close()
		})
	}
}
