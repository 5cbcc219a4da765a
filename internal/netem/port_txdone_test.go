package netem

import (
	"slices"
	"testing"
	"time"
	"unsafe"

	"flexpass/internal/sim"
	"flexpass/internal/units"
)

// Lazy tx-done state machine: the port reserves its tx-done position for
// every frame but only materialises the event when something is, or
// becomes, queued behind the frame in flight. These tests pin when that
// happens by counting dispatched events per component; 1250 B at 10 Gbps
// is a 1 µs frame throughout.

const (
	us    = sim.Microsecond
	frame = 1250
)

type evCounts map[string]int

// countEvents tallies every event eng dispatches by component name.
func countEvents(eng *sim.Engine) evCounts {
	n := evCounts{}
	eng.SetProfile(func(c sim.Component, _ time.Duration) { n[eng.ComponentNames()[c]]++ })
	return n
}

func (n evCounts) want(t *testing.T, tx, deliver, pacing int) {
	t.Helper()
	if n["netem/tx"] != tx || n["netem/deliver"] != deliver || n["netem/pacing"] != pacing {
		t.Fatalf("events tx/deliver/pacing = %d/%d/%d, want %d/%d/%d",
			n["netem/tx"], n["netem/deliver"], n["netem/pacing"], tx, deliver, pacing)
	}
}

func wantTimes(t *testing.T, what string, got []sim.Time, want ...sim.Time) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("%s at %v, want %v", what, got, want)
	}
}

func TestTxDoneIdlePortOneFrameOneEvent(t *testing.T) {
	eng := sim.NewEngine(1)
	p, sk := singleQueuePort(eng, 10*units.Gbps, 2*us)
	n := countEvents(eng)
	p.Send(mkPkt(0, frame))
	if eng.Pending() != 1 {
		t.Fatalf("one frame on an idle port scheduled %d events, want 1", eng.Pending())
	}
	eng.Run(sim.Second)
	if eng.Processed != 1 {
		t.Fatalf("dispatched %d events, want 1", eng.Processed)
	}
	n.want(t, 0, 1, 0)
	wantTimes(t, "arrivals", sk.at, 3*us)
}

func TestTxDoneBacklog(t *testing.T) {
	const N = 7
	eng := sim.NewEngine(1)
	p, sk := singleQueuePort(eng, 10*units.Gbps, 0)
	n := countEvents(eng)
	for i := 0; i < N; i++ {
		p.Send(mkPkt(0, frame))
	}
	eng.Run(sim.Second)
	n.want(t, N-1, N, 0) // the last frame leaves nothing behind it
	if len(sk.at) != N || sk.at[N-1] != N*us {
		t.Fatalf("arrivals at %v, want %d ending at %v", sk.at, N, N*us)
	}
}

func TestTxDoneMaterialisedOncePerFrame(t *testing.T) {
	eng := sim.NewEngine(1)
	p, sk := singleQueuePort(eng, 10*units.Gbps, 0)
	n := countEvents(eng)
	p.Send(mkPkt(0, frame))
	for i := 1; i <= 3; i++ {
		p.Send(mkPkt(0, frame))
		if eng.Pending() != 2 { // the delivery plus one tx-done, however many arrive
			t.Fatalf("after arrival %d mid-frame: %d events pending, want 2", i, eng.Pending())
		}
	}
	eng.Run(sim.Second)
	n.want(t, 3, 4, 0)
	wantTimes(t, "arrivals", sk.at, 1*us, 2*us, 3*us, 4*us)
}

// TestTxDoneSamePicosecondArrival sends a second frame at the very
// instant the first one's (virtual) tx-done sits, from an event ordered
// before it and from one ordered after it. Before: the port is still
// busy, so the frame queues and tx-done must materialise in its reserved
// position, later in the same instant. After: the position has passed,
// the port is idle, and no tx-done ever exists. Either way the frame goes
// out at 1 µs, as it did when tx-done was unconditional.
func TestTxDoneSamePicosecondArrival(t *testing.T) {
	for _, tc := range []struct {
		name   string
		before bool
		tx     int
	}{{"before", true, 1}, {"after", false, 0}} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine(1)
			p, sk := singleQueuePort(eng, 10*units.Gbps, 0)
			n := countEvents(eng)
			second := func() { p.Send(mkPkt(0, frame)) }
			if tc.before {
				eng.At(1*us, second) // sequenced ahead of the slot kick reserves below
			}
			eng.At(0, func() {
				p.Send(mkPkt(0, frame))
				if !tc.before {
					eng.At(1*us, second)
				}
			})
			eng.Run(sim.Second)
			n.want(t, tc.tx, 2, 0)
			wantTimes(t, "arrivals", sk.at, 1*us, 2*us)
		})
	}
}

func TestTxDonePacingWakeWhileBusy(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := PortConfig{Queues: []QueueConfig{
		// 1250 B at 10/3 Gbps: eligible again 3 µs after each dequeue.
		{Name: "paced", Band: 0, RateLimit: 10 * units.Gbps / 3},
		{Name: "data", Band: 1},
	}}
	p := NewPort(eng, "wake", 10*units.Gbps, 0, cfg, nil)
	sk := &sink{id: 1, eng: eng}
	p.Connect(sk)
	n := countEvents(eng)
	p.Send(mkPkt(0, frame)) // A: 0–1 µs; paced queue eligible again at 3 µs
	p.Send(mkPkt(0, frame)) // B: queues behind A, arms A's tx-done; at 1 µs a wake is set for 3 µs
	// C goes out 2.5–3.5 µs with B still queued, so its tx-done is armed at
	// dequeue; the 3 µs wake lands mid-frame and must not arm it again.
	eng.At(2500*sim.Nanosecond, func() { p.Send(mkPkt(1, frame)) })
	eng.Run(sim.Second)
	n.want(t, 2, 3, 1)
	wantTimes(t, "arrivals", sk.at, 1*us, 3500*sim.Nanosecond, 4500*sim.Nanosecond)
}

func TestTxDoneLinkFlapMidFrame(t *testing.T) {
	const ns = sim.Nanosecond
	for _, tc := range []struct {
		name    string
		queued  bool     // a second frame waits behind the one in flight
		upAt    sim.Time // SetDown(false); the frame in flight ends at 1 µs
		tx      int
		arrival []sim.Time
	}{
		// Nothing queued: coming back up mid-frame re-kicks the port, which
		// cannot know the queues stay empty, so that one tx-done exists.
		{"empty/up-before-end", false, 600 * ns, 1, []sim.Time{1 * us, 3200 * ns}},
		{"empty/up-after-end", false, 1500 * ns, 0, []sim.Time{1 * us, 3200 * ns}},
		// Queued frame: tx-done fires at 1 µs either way; while still down
		// it must leave the backlog for SetDown(false) to restart. Restarted
		// at 1.5 µs, the backlog is still on the wire when the late frame
		// arrives, which costs the second tx-done.
		{"queued/up-before-end", true, 600 * ns, 1, []sim.Time{1 * us, 2 * us, 3200 * ns}},
		{"queued/up-after-end", true, 1500 * ns, 2, []sim.Time{1 * us, 2500 * ns, 3500 * ns}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine(1)
			p, sk := singleQueuePort(eng, 10*units.Gbps, 0)
			n := countEvents(eng)
			p.Send(mkPkt(0, frame))
			if tc.queued {
				p.Send(mkPkt(0, frame))
			}
			eng.At(300*ns, func() { p.SetDown(true) })
			eng.At(tc.upAt, func() { p.SetDown(false) })
			eng.At(2200*ns, func() { p.Send(mkPkt(0, frame)) })
			eng.Run(sim.Second)
			n.want(t, tc.tx, len(tc.arrival), 0)
			wantTimes(t, "arrivals", sk.at, tc.arrival...)
		})
	}
}

func TestTxDoneRateDegradeMidFrame(t *testing.T) {
	eng := sim.NewEngine(1)
	p, sk := singleQueuePort(eng, 10*units.Gbps, 0)
	n := countEvents(eng)
	p.Send(mkPkt(0, frame))
	eng.At(500*sim.Nanosecond, func() {
		p.SetRateFraction(0.5) // the reserved tx-done position stays at 1 µs
		p.Send(mkPkt(0, frame))
	})
	eng.Run(sim.Second)
	n.want(t, 1, 2, 0)
	wantTimes(t, "arrivals", sk.at, 1*us, 3*us)
}

// TestTxDoneRemotePort: a cross-shard cut has no local delivery event, so
// an uncongested frame costs this engine nothing at all, and a backlog
// costs only the tx-dones that drain it.
func TestTxDoneRemotePort(t *testing.T) {
	eng := sim.NewEngine(1)
	p, sk := singleQueuePort(eng, 10*units.Gbps, 2*us)
	var handed []sim.Time
	p.SetRemote(func(at sim.Time, _ *Packet) { handed = append(handed, at) })
	n := countEvents(eng)
	p.Send(mkPkt(0, frame))
	if eng.Pending() != 0 {
		t.Fatalf("remote port scheduled %d events for a lone frame, want 0", eng.Pending())
	}
	eng.Run(10 * us)
	for i := 0; i < 3; i++ {
		p.Send(mkPkt(0, frame))
	}
	eng.Run(sim.Second)
	n.want(t, 2, 0, 0)
	if len(sk.arrived) != 0 {
		t.Fatal("remote port delivered locally")
	}
	wantTimes(t, "hand-offs", handed, 3*us, 13*us, 14*us, 15*us)
}

// TestPortAllocationSizeClass holds the data plane's per-frame and
// per-port structs to the sizes they carry nothing unread at: Port in the
// 352-byte malloc size class (a fabric holds thousands of ports, and the
// next class, 384, shows up as set-up memory), Packet at 72 bytes (every
// slab and every hop touches it) and queue, held by value in its port,
// at 192. A field added to any of them fails here until it earns its
// bytes.
func TestPortAllocationSizeClass(t *testing.T) {
	for _, c := range []struct {
		name     string
		sz, most uintptr
	}{
		{"Port", unsafe.Sizeof(Port{}), 352},
		{"Packet", unsafe.Sizeof(Packet{}), 72},
		{"queue", unsafe.Sizeof(queue{}), 192},
	} {
		if c.sz > c.most {
			t.Errorf("%s is %d bytes, over %d", c.name, c.sz, c.most)
		}
	}
}
