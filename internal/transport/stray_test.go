package transport

import (
	"testing"

	"flexpass/internal/netem"
	"flexpass/internal/obs"
)

type sinkEndpoint struct{ handled int }

func (s *sinkEndpoint) Handle(*netem.Packet) { s.handled++ }

func TestAgentCountsStrayPackets(t *testing.T) {
	reg := obs.NewRegistry()
	strays := reg.Counter("transport/agent", "stray_packets")
	var flows Flows
	a, b, c := &Agent{Flows: &flows}, &Agent{Flows: &flows}, &Agent{Flows: &flows}
	a.ObserveStrays(strays)

	ep := &sinkEndpoint{}
	fl := flows.Add(&Flow{ID: 7, Src: b, Dst: a})
	a.dispatch(&netem.Packet{Flow: 7}) // the receiver has not started
	fl.Receiver = ep
	a.dispatch(&netem.Packet{Flow: 7})
	if ep.handled != 1 || a.Strays != 1 {
		t.Fatalf("started flow: handled=%d strays=%d, want 1 1", ep.handled, a.Strays)
	}

	a.dispatch(&netem.Packet{Flow: 99}) // no such flow
	a.dispatch(&netem.Packet{Flow: 3})  // an ID inside the table no flow holds
	a.dispatch(&netem.Packet{Flow: 0})
	flows.Add(&Flow{ID: 8, Src: b, Dst: c, Sender: ep, Receiver: ep})
	a.dispatch(&netem.Packet{Flow: 8}) // this host is neither end of the flow
	if a.Strays != 5 {
		t.Fatalf("Strays = %d, want 5", a.Strays)
	}
	if strays.Value() != 5 {
		t.Fatalf("registry counter = %d, want 5", strays.Value())
	}
	if ep.handled != 1 {
		t.Fatalf("endpoint saw %d packets, want 1", ep.handled)
	}
}

func TestAgentStraysWithoutObserver(t *testing.T) {
	a := &Agent{Flows: new(Flows)}
	a.dispatch(&netem.Packet{Flow: 1}) // nil stray counter must no-op
	if a.Strays != 1 {
		t.Fatalf("Strays = %d, want 1", a.Strays)
	}
}
