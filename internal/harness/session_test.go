package harness

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"flexpass/internal/sim"
	"flexpass/internal/transport"
	"flexpass/internal/transport/schemes"
	"flexpass/internal/workload"
)

// TestSessionMatchesRun: a session opened with no flows of its own, given
// the scenario's flows one StartFlow each in spec order, runs what Run
// runs — its golden row's records and event count — for every scheme.
// oWF is the exception that proves where the flows come from: its queue
// weights are the upgraded byte share of the scenario's own flows,
// measured at Open, so a session that is handed them later runs at the
// 0.5 fallback and has no Run twin.
func TestSessionMatchesRun(t *testing.T) {
	for _, scheme := range allSchemeNames {
		t.Run(string(scheme), func(t *testing.T) {
			sc := shardScenario(scheme, 1)
			plan := planWorkload(sc)
			sc.TraceFlows = []workload.FlowSpec{}
			s := Open(sc)
			for _, fs := range plan.flows {
				name := transport.SchemeDCTCP
				if plan.upgraded(fs) {
					name = string(sc.Scheme)
				}
				s.StartFlow(fs.At, name, fs.Src, fs.Dst, fs.Size)
			}
			s.Run(sc.Duration + sc.Drain)
			got := s.Close()
			if scheme == SchemeOWF {
				if got.OracleWQ != 0.5 || plan.oracleWQ == 0.5 {
					t.Fatalf("oracle weight %g in the session, %g in Run: want the fallback and a measured share", got.OracleWQ, plan.oracleWQ)
				}
				return
			}
			matchGolden(t, got, string(scheme))
		})
	}
}

// TestSessionOnePlaneOnly: starting a flow after Open and a second Run
// need one engine; a sharded session refuses both with the contract, and
// still runs once.
func TestSessionOnePlaneOnly(t *testing.T) {
	sc := shardScenario(SchemeFlexPass, 2)
	s := Open(sc)
	mustPanic := func(op string, f func()) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "needs one engine") {
				t.Fatalf("%s on two planes: recovered %v, want the one-engine contract", op, r)
			}
		}()
		f()
	}
	mustPanic("StartFlow", func() { s.StartFlow(0, string(SchemeFlexPass), 0, 7, 1000) })
	s.Run(sc.Duration)
	mustPanic("a second Run", func() { s.Run(sc.Duration + sc.Drain) })
	if res := s.Close(); len(res.Flows.Records) == 0 {
		t.Fatal("the sharded session recorded no flows")
	}
}

// orderScheme records which half of a flow was started when.
type orderScheme struct{ calls []string }

func (s *orderScheme) StartSender(*sim.Engine, *transport.Flow) { s.calls = append(s.calls, "sender") }
func (s *orderScheme) StartReceiver(*sim.Engine, *transport.Flow) {
	s.calls = append(s.calls, "receiver")
}

// TestStartReceiverFirst pins a plane's start order: the receiving
// endpoint is registered before the sender can put a frame on the wire.
func TestStartReceiverFirst(t *testing.T) {
	eng := sim.NewEngine(1)
	pl := &plane{eng: eng, started: new(atomic.Int64)}
	s := &orderScheme{}
	end := &transport.Agent{Eng: eng}
	pl.start(&instance{Scheme: &schemes.Scheme{Halves: s}}, &transport.Flow{ID: 1, Src: end, Dst: end})
	if len(s.calls) != 2 || s.calls[0] != "receiver" || s.calls[1] != "sender" {
		t.Fatalf("start called %v, want [receiver sender]", s.calls)
	}
}
