package forensics

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"flexpass/internal/netem"
	"flexpass/internal/sim"
	"flexpass/internal/units"
)

// allocated reports the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// feed records n enqueue events of flow at p.
func feed(rec *Recorder, p *netem.Port, flow uint64, n int) {
	for i := 0; i < n; i++ {
		rec.HopEnqueue(sim.Time(i), p, 0, &netem.Packet{Flow: flow, Seq: uint32(i)}, 1)
	}
}

// TestHopLogAllocBudget pins what the hop recorder allocates: its records
// and nothing else. A record is 40 pointer-free bytes in a block from the
// recorder's free list; with 80-byte expanded records (a string port and
// an int queue among them) in per-flow slices grown by append, a log cost about
// 2.5 times its final 80 bytes a record, and a new flow could inherit a
// small released log and grow it all over again.
func TestHopLogAllocBudget(t *testing.T) {
	const slack = 1.15
	size := float64(unsafe.Sizeof(hop{}))
	p := testPort(sim.NewEngine(1), 0)

	t.Run("bytes per retained record", func(t *testing.T) {
		rec := NewRecorder(nil)
		const flows, each = 16, 2000
		got := float64(allocated(func() {
			for fl := uint64(1); fl <= flows; fl++ {
				feed(rec, p, fl, each)
			}
		})) / (flows * each)
		t.Logf("%.1f B per retained record (record %v B)", got, size)
		if got > slack*size {
			t.Fatalf("%.1f B allocated per retained record, budget %.1f", got, slack*size)
		}
	})

	t.Run("a wrapping ring allocates nothing past its cap", func(t *testing.T) {
		rec := NewRecorder(nil)
		hopCap := rec.hopCap
		got := float64(allocated(func() { feed(rec, p, 1, 10*hopCap) })) / float64(hopCap)
		if got > slack*size {
			t.Fatalf("a flow of 10×HopCap records allocated %.1f B per retained record, budget %.1f", got, slack*size)
		}
		pkt := &netem.Packet{Flow: 1}
		if n := testing.AllocsPerRun(1000, func() { rec.HopEnqueue(0, p, 0, pkt, 1) }); n != 0 {
			t.Fatalf("a full ring allocated %v objects per record, want 0", n)
		}
		if got := rec.HopsDropped(1); got != int64(9*hopCap+1001) {
			t.Fatalf("HopsDropped = %d, want %d", got, 9*hopCap+1001)
		}
	})

	t.Run("a flow after a release takes freed blocks", func(t *testing.T) {
		rec := NewRecorder(&Options{Timelines: 1})
		feed(rec, p, 1, rec.hopCap) // a full ring
		feed(rec, p, 2, 10)         // one block
		rec.Done(3, 5)              // the one flow kept for export
		rec.Done(1, 1)
		rec.Done(2, 0)
		made := len(rec.blocks)
		got := allocated(func() { feed(rec, p, 4, rec.hopCap) })
		if len(rec.blocks) != made {
			t.Fatalf("the new flow made %d blocks with %d free", len(rec.blocks)-made, made)
		}
		if block := uint64(size) * uint64(rec.blockLen); got >= block {
			t.Fatalf("the new flow allocated %d B, a block is %d B", got, block)
		}
	})

	t.Run("the record holds no pointer", func(t *testing.T) {
		if size > 40 {
			t.Fatalf("a hop record is %v bytes, want at most 40", size)
		}
		typ := reflect.TypeOf(hop{})
		for i := 0; i < typ.NumField(); i++ {
			switch f := typ.Field(i); f.Type.Kind() {
			case reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
				reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			default:
				t.Fatalf("hop.%s is a %v: a record must hold no pointer", f.Name, f.Type)
			}
		}
	})
}

// TestHopRingKeepsNewest holds the block ring to a plain slice of every
// record: each flow keeps exactly its newest HopCap records, oldest
// first, and counts the rest, across block boundaries, ring sizes that
// are not a multiple of a block, and blocks reused from a released flow
// while another flow's ring keeps filling.
func TestHopRingKeepsNewest(t *testing.T) {
	p := testPort(sim.NewEngine(1), 0)
	for _, hopCap := range []int{1, 7, blockLen, blockLen + 44, 2*blockLen + 1} {
		for _, n := range []int{1, hopCap - 1, hopCap, hopCap + 1, 3*hopCap + 5} {
			if n == 0 {
				continue
			}
			rec := NewRecorder(&Options{HopCap: hopCap, Timelines: 1})
			want := map[uint64][]uint32{}
			add := func(flow uint64, seq int) {
				rec.HopEnqueue(sim.Time(seq), p, 0, &netem.Packet{Flow: flow, Seq: uint32(seq)}, 1)
				want[flow] = append(want[flow], uint32(seq))
			}
			for i := 0; i < n; i++ {
				add(1, i)
				if i%3 == 0 {
					add(2, i)
				}
			}
			rec.Done(9, 1) // kept
			rec.Done(2, 0) // released: its blocks go to flow 3
			delete(want, 2)
			for i := 0; i < n; i++ {
				add(3, i)
				add(1, n+i)
			}
			for flow, seqs := range want {
				kept := seqs[max(len(seqs)-hopCap, 0):]
				hops := rec.Hops(flow)
				if len(hops) != len(kept) {
					t.Fatalf("HopCap %d, %d records: flow %d kept %d, want %d", hopCap, n, flow, len(hops), len(kept))
				}
				for i, h := range hops {
					if h.Seq != kept[i] || h.AtPs != int64(kept[i]) || h.Port != p.Name() || h.QueueBytes != 1 {
						t.Fatalf("HopCap %d, %d records: flow %d record %d is %+v, want seq %d", hopCap, n, flow, i, h, kept[i])
					}
				}
				if got, want := rec.HopsDropped(flow), int64(len(seqs)-len(kept)); got != want {
					t.Fatalf("HopCap %d, %d records: flow %d dropped %d, want %d", hopCap, n, flow, got, want)
				}
			}
			if len(rec.Hops(2)) != 0 {
				t.Fatalf("HopCap %d: a released flow kept records", hopCap)
			}
		}
	}
}

// TestRecorderPortTable: a record names its port whether the port is
// numbered in a Network, where ranks are dense, or not, where every port
// has rank 1 and the table falls back to a scan.
func TestRecorderPortTable(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := netem.PortConfig{Queues: []netem.QueueConfig{{Name: "Q0"}}}
	port := func(name string) *netem.Port {
		return netem.NewPort(eng, name, 10*units.Gbps, 0, cfg, nil)
	}
	sw := netem.NewSwitch(eng, 0, "sw0", nil)
	sw.AddPort(port("sw0-p0"))
	sw.AddPort(port("sw0-p1"))
	netem.NewNetwork(eng).AddSwitch(sw)
	ports := append([]*netem.Port{port("loose-a"), port("loose-b")}, sw.Ports()...)
	ports = append(ports, port("loose-c"))

	rec := NewRecorder(nil)
	for round := 0; round < 2; round++ {
		for i, p := range ports {
			rec.HopEnqueue(0, p, 0, &netem.Packet{Flow: 1, Seq: uint32(i)}, 1)
		}
	}
	hops := rec.Hops(1)
	if len(hops) != 2*len(ports) || len(rec.ports) != len(ports) {
		t.Fatalf("%d records over %d table ports, want %d over %d", len(hops), len(rec.ports), 2*len(ports), len(ports))
	}
	for i, h := range hops {
		if want := ports[i%len(ports)].Name(); h.Port != want {
			t.Fatalf("record %d names port %q, want %q", i, h.Port, want)
		}
	}
}
