package flexpass

import (
	"fmt"
	"strings"
	"testing"

	"flexpass/internal/netem"
)

// TestStartFlowRejectsUnknownTransport: a transport name that is not in
// the scheme table (schemes.Names()) panics at the call that names it — for a scheduled
// start too, not later from inside Run when the start would fire.
func TestStartFlowRejectsUnknownTransport(t *testing.T) {
	starts := map[string]func(*Testbed){
		"StartFlow":   func(tb *Testbed) { tb.StartFlow("bogus", 0, 1, 1000) },
		"StartFlowAt": func(tb *Testbed) { tb.StartFlowAt(Millisecond, "bogus", 0, 1, 1000) },
	}
	for name, start := range starts {
		t.Run(name, func(t *testing.T) {
			tb := NewTestbed(TestbedConfig{Hosts: 2})
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), `"bogus"`) {
					t.Fatalf("%s recovered %v, want a panic naming the transport", name, r)
				}
			}()
			start(tb)
		})
	}
}

// TestTestbedRecyclesFrames keeps the pooled-vs-stripped check
// (TestGoldenDigestPooled) from passing vacuously: a testbed is
// pooled as built, so the frame one host consumed
// is the frame the sender's next NewPacket returns.
func TestTestbedRecyclesFrames(t *testing.T) {
	for _, kind := range []TestbedKind{SingleSwitch, DumbbellPairs} {
		tb := NewTestbed(TestbedConfig{Kind: kind, Hosts: 4})
		src, dst := tb.Fabric.Net.Host(0), tb.Fabric.Net.Host(3)
		var seen *netem.Packet
		dst.SetHandler(func(p *netem.Packet) { seen = p })
		pkt := src.NewPacket()
		*pkt = netem.Packet{Kind: netem.KindLegacyData, Class: netem.ClassLegacy, Dst: dst.NodeID(), Size: netem.MTUWire}
		src.Send(pkt)
		tb.Run(Millisecond)
		if seen != pkt {
			t.Fatalf("kind %d: frame not delivered", kind)
		}
		if src.NewPacket() != pkt {
			t.Fatalf("kind %d: consumed frame was not recycled", kind)
		}
	}
}
