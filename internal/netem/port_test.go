package netem

import (
	"math/rand"
	"testing"
	"testing/quick"

	"flexpass/internal/sim"
	"flexpass/internal/units"
)

// sink records every packet it receives with the arrival time.
type sink struct {
	id      NodeID
	arrived []*Packet
	at      []sim.Time
	eng     *sim.Engine
}

func (s *sink) NodeID() NodeID { return s.id }
func (s *sink) Receive(p *Packet) {
	s.arrived = append(s.arrived, p)
	if s.eng != nil {
		s.at = append(s.at, s.eng.Now())
	}
}

func mkPkt(class Class, size int) *Packet {
	return &Packet{Class: class, Size: size}
}

func singleQueuePort(eng *sim.Engine, rate units.Rate, prop sim.Time) (*Port, *sink) {
	cfg := PortConfig{Queues: []QueueConfig{{Name: "Q0"}}}
	p := NewPort(eng, "test", rate, prop, cfg, nil)
	sk := &sink{id: 99, eng: eng}
	p.Connect(sk)
	return p, sk
}

func TestPortSerializationAndPropagation(t *testing.T) {
	eng := sim.NewEngine(1)
	p, sk := singleQueuePort(eng, 10*units.Gbps, 2*sim.Microsecond)
	p.Send(mkPkt(0, 1250)) // 1250B at 10Gbps = 1us tx
	eng.Run(sim.Second)
	if len(sk.arrived) != 1 {
		t.Fatalf("arrived %d packets, want 1", len(sk.arrived))
	}
	want := 1*sim.Microsecond + 2*sim.Microsecond
	if sk.at[0] != want {
		t.Fatalf("arrival at %v, want %v", sk.at[0], want)
	}
}

func TestPortBackToBackSerialization(t *testing.T) {
	eng := sim.NewEngine(1)
	p, sk := singleQueuePort(eng, 10*units.Gbps, 0)
	for i := 0; i < 5; i++ {
		p.Send(mkPkt(0, 1250))
	}
	eng.Run(sim.Second)
	if len(sk.arrived) != 5 {
		t.Fatalf("arrived %d, want 5", len(sk.arrived))
	}
	for i, at := range sk.at {
		want := sim.Time(i+1) * sim.Microsecond
		if at != want {
			t.Fatalf("packet %d at %v, want %v", i, at, want)
		}
	}
}

func TestStrictPriorityPreemptsLowerBandQueueing(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := PortConfig{Queues: []QueueConfig{
		{Name: "hi", Band: 0},
		{Name: "lo", Band: 1},
	}}
	p := NewPort(eng, "sp", 10*units.Gbps, 0, cfg, nil)
	sk := &sink{id: 1, eng: eng}
	p.Connect(sk)
	// Fill low priority first, then add high priority while port busy.
	for i := 0; i < 3; i++ {
		p.Send(&Packet{Class: 1, Size: 1250, Seq: uint32(i)})
	}
	eng.After(100*sim.Nanosecond, func() {
		p.Send(&Packet{Class: 0, Size: 1250, Seq: 100})
	})
	eng.Run(sim.Second)
	if len(sk.arrived) != 4 {
		t.Fatalf("arrived %d, want 4", len(sk.arrived))
	}
	// First low-priority packet was already serializing; the high-priority
	// one must come second.
	if sk.arrived[0].Seq != 0 || sk.arrived[1].Seq != 100 {
		t.Fatalf("order = [%d %d ...], want [0 100 ...]", sk.arrived[0].Seq, sk.arrived[1].Seq)
	}
}

func TestDWRRWeightedShares(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := PortConfig{Queues: []QueueConfig{
		{Name: "a", Band: 0, Weight: 3},
		{Name: "b", Band: 0, Weight: 1},
	}}
	p := NewPort(eng, "dwrr", 10*units.Gbps, 0, cfg, nil)
	sk := &sink{id: 1, eng: eng}
	p.Connect(sk)
	const n = 400
	for i := 0; i < n; i++ {
		p.Send(&Packet{Class: 0, Size: 1500})
		p.Send(&Packet{Class: 1, Size: 1500})
	}
	// Run long enough to drain half the total backlog.
	eng.Run((10 * units.Gbps).TxTime(1500) * n) // time to send n packets
	var fromA, fromB int
	for _, pk := range sk.arrived {
		if pk.Class == 0 {
			fromA++
		} else {
			fromB++
		}
	}
	total := fromA + fromB
	if total == 0 {
		t.Fatal("nothing transmitted")
	}
	shareA := float64(fromA) / float64(total)
	if shareA < 0.70 || shareA > 0.80 {
		t.Fatalf("queue a share = %.3f, want ~0.75", shareA)
	}
}

func TestDWRREqualWeightsFair(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := PortConfig{Queues: []QueueConfig{
		{Name: "a", Band: 0, Weight: 1},
		{Name: "b", Band: 0, Weight: 1},
	}}
	p := NewPort(eng, "dwrr", 40*units.Gbps, 0, cfg, nil)
	sk := &sink{id: 1, eng: eng}
	p.Connect(sk)
	// Unequal packet sizes: fairness must hold in bytes, not packets.
	for i := 0; i < 900; i++ {
		p.Send(&Packet{Class: 0, Size: 1500})
	}
	for i := 0; i < 2700; i++ {
		p.Send(&Packet{Class: 1, Size: 500})
	}
	eng.Run((40 * units.Gbps).TxTime(1500) * 600)
	var bytesA, bytesB int64
	for _, pk := range sk.arrived {
		if pk.Class == 0 {
			bytesA += int64(pk.Size)
		} else {
			bytesB += int64(pk.Size)
		}
	}
	ratio := float64(bytesA) / float64(bytesA+bytesB)
	if ratio < 0.45 || ratio > 0.55 {
		t.Fatalf("byte share of a = %.3f, want ~0.5", ratio)
	}
}

func TestRateLimitedQueuePacing(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := PortConfig{Queues: []QueueConfig{
		{Name: "credit", Band: 0, RateLimit: 1 * units.Gbps, CapBytes: 100 * units.KB},
		{Name: "data", Band: 1},
	}}
	p := NewPort(eng, "rl", 10*units.Gbps, 0, cfg, nil)
	sk := &sink{id: 1, eng: eng}
	p.Connect(sk)
	// 100 credits of 125B each: at 1Gbps that's 1us per credit.
	for i := 0; i < 100; i++ {
		p.Send(&Packet{Class: 0, Size: 125})
	}
	eng.Run(200 * sim.Microsecond)
	var credits int
	for _, pk := range sk.arrived {
		if pk.Class == 0 {
			credits++
		}
	}
	// In 200us at 1Gbps we can send 200*125B = 200 credits worth of time,
	// but only 100 were queued; all should arrive, paced 1us apart.
	if credits != 100 {
		t.Fatalf("credits delivered = %d, want 100", credits)
	}
	for i := 1; i < len(sk.at); i++ {
		gap := sk.at[i] - sk.at[i-1]
		if gap < sim.Microsecond {
			t.Fatalf("credit gap %v < 1us pacing", gap)
		}
	}
}

func TestRateLimitedQueueDoesNotBlockLowerBand(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := PortConfig{Queues: []QueueConfig{
		{Name: "credit", Band: 0, RateLimit: 100 * units.Mbps, CapBytes: 10 * units.KB},
		{Name: "data", Band: 1},
	}}
	p := NewPort(eng, "rl2", 10*units.Gbps, 0, cfg, nil)
	sk := &sink{id: 1, eng: eng}
	p.Connect(sk)
	p.Send(&Packet{Class: 0, Size: 125})
	p.Send(&Packet{Class: 0, Size: 125})
	for i := 0; i < 10; i++ {
		p.Send(&Packet{Class: 1, Size: 1250})
	}
	eng.Run(30 * sim.Microsecond)
	// The second credit is not eligible until 10us (125B at 100Mbps); data
	// must flow in the meantime.
	var dataBefore10us int
	for i, pk := range sk.arrived {
		if pk.Class == 1 && sk.at[i] < 10*sim.Microsecond {
			dataBefore10us++
		}
	}
	if dataBefore10us < 5 {
		t.Fatalf("only %d data packets before the paced credit; rate limiter blocked the port", dataBefore10us)
	}
}

// TestECNMarkingThreshold: threshold marking is RED with min = max = K,
// so a packet is marked iff the queue's occupancy after its enqueue
// exceeds K. Ten 1500 B frames land at once behind a 4500 B threshold:
// the first leaves at once, the fourth fills the queue to exactly K and
// stays unmarked, and the fifth and every later one are marked.
func TestECNMarkingThreshold(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := PortConfig{Queues: []QueueConfig{
		{Name: "q", ECNThreshold: 4500},
	}}
	p := NewPort(eng, "ecn", 10*units.Gbps, 0, cfg, nil)
	sk := &sink{id: 1, eng: eng}
	p.Connect(sk)
	for i := 0; i < 10; i++ {
		p.Send(&Packet{Class: 0, Size: 1500, ECNCapable: true})
	}
	eng.Run(sim.Second)
	if len(sk.arrived) != 10 {
		t.Fatalf("%d packets arrived, want 10", len(sk.arrived))
	}
	for i, pk := range sk.arrived {
		if pk.CE != (i >= 4) {
			t.Fatalf("packet %d: CE = %v, want %v", i, pk.CE, i >= 4)
		}
	}
	if m := p.QueueStats(0).Marked; m != 6 {
		t.Fatalf("Marked = %d, want 6", m)
	}
}

// TestREDMarksAllAboveMax: with the band collapsed to K = 3000 B, every
// packet enqueued once occupancy has passed the top of the band is marked.
func TestREDMarksAllAboveMax(t *testing.T) {
	eng := sim.NewEngine(3)
	cfg := PortConfig{Queues: []QueueConfig{{Name: "q", ECNThreshold: 3_000}}}
	p := NewPort(eng, "red2", 1*units.Gbps, 0, cfg, nil)
	sk := &sink{id: 1, eng: eng}
	p.Connect(sk)
	for i := 0; i < 30; i++ {
		p.Send(&Packet{Class: 0, Size: 1000, ECNCapable: true})
	}
	eng.Run(sim.Second)
	if len(sk.arrived) != 30 {
		t.Fatalf("%d packets arrived, want 30", len(sk.arrived))
	}
	// All packets enqueued after occupancy passed 3000B must be marked.
	unmarkedLate := 0
	for i, pk := range sk.arrived {
		if i >= 5 && !pk.CE {
			unmarkedLate++
		}
	}
	if unmarkedLate != 0 {
		t.Fatalf("%d packets above the threshold escaped marking", unmarkedLate)
	}
}

// TestREDBelowMinNeverMarks: a queue that never reaches K = 100 kB marks
// nothing.
func TestREDBelowMinNeverMarks(t *testing.T) {
	eng := sim.NewEngine(3)
	cfg := PortConfig{Queues: []QueueConfig{{Name: "q", ECNThreshold: 100_000}}}
	p := NewPort(eng, "red3", 10*units.Gbps, 0, cfg, nil)
	sk := &sink{id: 1, eng: eng}
	p.Connect(sk)
	for i := 0; i < 50; i++ {
		p.Send(&Packet{Class: 0, Size: 1000, ECNCapable: true})
	}
	eng.Run(sim.Second)
	if len(sk.arrived) != 50 {
		t.Fatalf("%d packets arrived, want 50", len(sk.arrived))
	}
	for _, pk := range sk.arrived {
		if pk.CE {
			t.Fatal("packet marked below the threshold")
		}
	}
}

func TestECNNotMarkedWhenNotCapable(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := PortConfig{Queues: []QueueConfig{{Name: "q", ECNThreshold: 1000}}}
	p := NewPort(eng, "ecn2", 10*units.Gbps, 0, cfg, nil)
	sk := &sink{id: 1, eng: eng}
	p.Connect(sk)
	for i := 0; i < 10; i++ {
		p.Send(&Packet{Class: 0, Size: 1500, ECNCapable: false})
	}
	eng.Run(sim.Second)
	for _, pk := range sk.arrived {
		if pk.CE {
			t.Fatal("non-ECT packet got CE mark")
		}
	}
}

func TestSelectiveDroppingRedThreshold(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := PortConfig{Queues: []QueueConfig{
		{Name: "q1", RedDropThreshold: 6000},
	}}
	p := NewPort(eng, "red", 1*units.Gbps, 0, cfg, nil)
	sk := &sink{id: 1, eng: eng}
	p.Connect(sk)
	// Interleave green and red; red beyond 6000B queued must drop, green never.
	for i := 0; i < 20; i++ {
		p.Send(&Packet{Class: 0, Size: 1500, Color: Red})
		p.Send(&Packet{Class: 0, Size: 1500, Color: Green})
	}
	eng.Run(sim.Second)
	st := p.QueueStats(0)
	if st.DroppedRed == 0 {
		t.Fatal("no red drops despite threshold")
	}
	if st.DroppedOver != 0 {
		t.Fatalf("green drops = %d, want 0", st.DroppedOver)
	}
	var green, red int
	for _, pk := range sk.arrived {
		if pk.Color == Red {
			red++
		} else {
			green++
		}
	}
	if green != 20 {
		t.Fatalf("green delivered = %d, want all 20", green)
	}
	if red >= 20 {
		t.Fatalf("red delivered = %d, want < 20", red)
	}
}

func TestSharedBufferDynamicThreshold(t *testing.T) {
	eng := sim.NewEngine(1)
	shared := NewSharedBuffer(100*units.KB, 0.25)
	cfg := PortConfig{Queues: []QueueConfig{{Name: "q"}}}
	// Very slow port so everything queues.
	p := NewPort(eng, "dyn", 1*units.Mbps, 0, cfg, shared)
	sk := &sink{id: 1, eng: eng}
	p.Connect(sk)
	accepted := 0
	for i := 0; i < 100; i++ {
		p.Send(&Packet{Class: 0, Size: 1500})
	}
	st := p.QueueStats(0)
	accepted = int(st.Enqueued)
	// Dynamic threshold: q <= 0.25*(100KB - q) => q <= 20KB => ~13 packets
	// (the first departs immediately, giving a little slack).
	if accepted < 10 || accepted > 20 {
		t.Fatalf("accepted %d packets, want ~13 under dynamic threshold", accepted)
	}
	if st.DroppedOver == 0 {
		t.Fatal("expected overflow drops")
	}
	_ = sk
}

func TestSharedBufferReleasesOnDequeue(t *testing.T) {
	eng := sim.NewEngine(1)
	shared := NewSharedBuffer(100*units.KB, 0.25)
	cfg := PortConfig{Queues: []QueueConfig{{Name: "q"}}}
	p := NewPort(eng, "rel", 10*units.Gbps, 0, cfg, shared)
	sk := &sink{id: 1, eng: eng}
	p.Connect(sk)
	for i := 0; i < 10; i++ {
		p.Send(&Packet{Class: 0, Size: 1500})
	}
	eng.Run(sim.Second)
	if shared.Used() != 0 {
		t.Fatalf("shared buffer used = %d after drain, want 0", shared.Used())
	}
	if len(sk.arrived) != 10 {
		t.Fatalf("delivered %d, want 10", len(sk.arrived))
	}
}

func TestPrivateCapCreditQueue(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := PortConfig{Queues: []QueueConfig{
		{Name: "credit", CapBytes: 1000, RateLimit: 100 * units.Mbps},
	}}
	p := NewPort(eng, "cap", 10*units.Gbps, 0, cfg, nil)
	sk := &sink{id: 1, eng: eng}
	p.Connect(sk)
	for i := 0; i < 50; i++ {
		p.Send(&Packet{Class: 0, Size: 125})
	}
	st := p.QueueStats(0)
	if st.DroppedOver == 0 {
		t.Fatal("credit queue over tiny cap should drop")
	}
	if st.Enqueued > 9 {
		t.Fatalf("enqueued %d credits into 1000B cap", st.Enqueued)
	}
}

// Property: conservation — every packet sent to an uncongested port is
// either delivered exactly once or counted as dropped.
func TestConservationProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		eng := sim.NewEngine(5)
		shared := NewSharedBuffer(20*units.KB, 0.5)
		cfg := PortConfig{Queues: []QueueConfig{
			{Name: "a", Band: 0, Weight: 1, RedDropThreshold: 4000},
			{Name: "b", Band: 0, Weight: 1},
		}}
		p := NewPort(eng, "cons", 1*units.Gbps, sim.Microsecond, cfg, shared)
		sk := &sink{id: 1, eng: eng}
		p.Connect(sk)
		sent := 0
		for i, s := range sizes {
			size := 64 + int(s)*8
			pk := &Packet{Class: Class(i % 2), Size: size}
			if i%3 == 0 {
				pk.Color = Red
			}
			p.Send(pk)
			sent++
		}
		eng.Run(sim.Second)
		dropped := int(p.QueueStats(0).Dropped + p.QueueStats(1).Dropped)
		return len(sk.arrived)+dropped == sent && shared.Used() == 0
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(9))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPortUtilizationNearLineRate(t *testing.T) {
	eng := sim.NewEngine(1)
	p, sk := singleQueuePort(eng, 40*units.Gbps, 0)
	// Keep the queue backlogged for 1ms.
	total := 0
	for i := 0; i < 4000; i++ {
		p.Send(mkPkt(0, 1538))
		total += 1538
	}
	eng.Run(sim.Millisecond)
	var rx int64
	for _, pk := range sk.arrived {
		rx += int64(pk.Size)
	}
	rate := units.RateOf(rx, sim.Millisecond)
	if rate < 39*units.Gbps {
		t.Fatalf("throughput %v, want ~40Gbps", rate)
	}
}

func TestPortKindAccounting(t *testing.T) {
	eng := sim.NewEngine(1)
	p, _ := singleQueuePort(eng, 10*units.Gbps, 0)
	p.Send(&Packet{Kind: KindLegacyData, Size: 1000})
	p.Send(&Packet{Kind: KindProData, Size: 500})
	p.Send(&Packet{Kind: KindProData, Size: 500})
	eng.Run(sim.Second)
	st := p.Stats()
	if st.TxPackets != 3 || st.TxBytes != 2000 {
		t.Fatalf("sent %d packets, %d bytes; want 3, 2000", st.TxPackets, st.TxBytes)
	}
}
