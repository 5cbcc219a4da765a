package transport

import (
	"math/rand"
	"testing"
	"testing/quick"

	"flexpass/internal/netem"
	"flexpass/internal/sim"
)

func TestSegMath(t *testing.T) {
	cases := []struct {
		size     int64
		segs     int
		lastPay  int
		lastWire int
	}{
		{1, 1, 1, 84},         // minimum frame
		{1460, 1, 1460, 1538}, // exactly one MTU
		{1461, 2, 1, 84},      // one byte spills
		{2920, 2, 1460, 1538}, // two full
		{100_000, 69, 100_000 - 68*1460, (100_000 - 68*1460) + 78},
		{0, 1, 1460, 1538}, // zero-size clamps to one segment
	}
	for _, c := range cases {
		f := &Flow{Size: c.size}
		if got := f.Segs(); got != c.segs {
			t.Errorf("Segs(%d) = %d, want %d", c.size, got, c.segs)
		}
		last := f.Segs() - 1
		if got := f.SegPayload(last); got != c.lastPay {
			t.Errorf("SegPayload(last) for %d = %d, want %d", c.size, got, c.lastPay)
		}
		if got := f.SegWire(last); got != c.lastWire {
			t.Errorf("SegWire(last) for %d = %d, want %d", c.size, got, c.lastWire)
		}
	}
}

// Property: segment payloads sum exactly to the flow size.
func TestSegPayloadConservation(t *testing.T) {
	f := func(raw uint32) bool {
		size := int64(raw%10_000_000) + 1
		fl := &Flow{Size: size}
		var sum int64
		for i := 0; i < fl.Segs(); i++ {
			p := fl.SegPayload(i)
			if p <= 0 || p > netem.DataPayload {
				return false
			}
			sum += int64(p)
		}
		return sum == size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(9))}); err != nil {
		t.Fatal(err)
	}
}

func TestCompleteIdempotent(t *testing.T) {
	n := 0
	f := &Flow{Start: sim.Millisecond, OnComplete: func(*Flow) { n++ }}
	f.Complete(3 * sim.Millisecond)
	f.Complete(5 * sim.Millisecond)
	if n != 1 {
		t.Fatalf("OnComplete fired %d times", n)
	}
	if f.FCT() != 2*sim.Millisecond {
		t.Fatalf("FCT = %v", f.FCT())
	}
}

func TestFCTBeforeCompletion(t *testing.T) {
	f := &Flow{}
	if f.FCT() != -1 {
		t.Fatal("incomplete flow must report FCT -1")
	}
}

func TestAgentDispatch(t *testing.T) {
	eng := sim.NewEngine(1)
	host := func(id netem.NodeID) *netem.Host {
		nic := netem.NewPort(eng, "nic", 1000, 0, netem.PortConfig{Queues: []netem.QueueConfig{{}}}, nil)
		return netem.NewHost(eng, id, "h", nic, 0)
	}
	var flows Flows
	hs, hd := host(1), host(2)
	src, dst := NewAgent(eng, hs, &flows), NewAgent(eng, hd, &flows)
	fl := flows.Add(&Flow{ID: 1, Src: src, Dst: dst})
	sent, got := 0, 0
	fl.Sender = handlerFunc(func(p *netem.Packet) { sent++ })
	fl.Receiver = handlerFunc(func(p *netem.Packet) { got++ })
	hd.Receive(&netem.Packet{Flow: 1})
	hs.Receive(&netem.Packet{Flow: 1})
	hs.Receive(&netem.Packet{Flow: 1})
	hd.Receive(&netem.Packet{Flow: 2}) // unknown: dropped
	if sent != 2 || got != 1 {
		t.Fatalf("dispatched %d to the sender and %d to the receiver, want 2 and 1", sent, got)
	}
	if src.Strays != 0 || dst.Strays != 1 {
		t.Fatalf("strays %d at the source and %d at the destination, want 0 and 1", src.Strays, dst.Strays)
	}
}

type handlerFunc func(*netem.Packet)

func (f handlerFunc) Handle(p *netem.Packet) { f(p) }
