package flexpass

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"

	"flexpass/internal/netem"
)

// FlowsDigest hashes every per-flow outcome (completion, FCT, byte and
// retransmission accounting) into one hex digest. Two runs produce the
// same digest iff their flow-visible results are byte-identical, which is
// the repository's contract for engine/data-plane optimizations: they may
// change how fast the simulator runs, never what it computes.
func FlowsDigest(flows []*Flow) string {
	h := fnv.New64a()
	var buf [8]byte
	w := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, fl := range flows {
		w(int64(fl.ID))
		w(fl.Size)
		w(int64(fl.Start))
		w(int64(fl.FCT()))
		w(fl.RxBytes)
		w(fl.RxBytesPro)
		w(fl.RxBytesRe)
		w(int64(fl.Timeouts))
		w(int64(fl.Retransmits))
		w(int64(fl.ProRetx))
		w(int64(fl.RedundantSegs))
		w(fl.MaxReorderB)
		w(int64(fl.CreditsGranted))
		w(int64(fl.CreditsWasted))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenDigests are the per-transport digests of runGoldenScenario,
// recorded before the hot-path overhaul (event pooling, monomorphic
// heap, packet recycling) landed. Any scheduling-order change — however
// subtle — shows up here as a digest mismatch, so optimizations that are
// supposed to be behaviour-preserving are caught explicitly.
//
// Recorded on linux/amd64, go1.24. If a digest changes INTENTIONALLY
// (a behavioural fix or model change), re-record it with:
//
//	go test -run TestGoldenDigest -v .
var goldenDigests = map[string]string{
	"flexpass":    "7cdd8f2ef26cf0fb",
	"expresspass": "7b9a6c2c15ee2d48",
	"dctcp":       "0580af3cb6559723",
	"homa":        "e1a707ccac364f2a",
	"phost":       "0bc385501275211f",
	"mixed":       "6e5276918e87ff7d",
}

// runGoldenScenario runs a small mixed-size contention scenario — an
// incast into host 4, a reverse bulk flow, and staggered short flows —
// on a 5-host single-switch testbed under one transport ("mixed" runs
// FlexPass, DCTCP and ExpressPass side by side) and returns the flow
// digest. prepare, when non-nil, adjusts the fabric before any flow is
// scheduled.
func runGoldenScenario(transport string, prepare func(*Testbed)) string {
	tb := NewTestbed(TestbedConfig{Hosts: 5, LinkRate: 10 * Gbps, Seed: 7})
	if prepare != nil {
		prepare(tb)
	}
	tp := func(i int) string {
		if transport != "mixed" {
			return transport
		}
		return []string{"flexpass", "dctcp", "expresspass"}[i%3]
	}
	tb.StartFlowAt(0, tp(0), 0, 4, 2_000_000)
	tb.StartFlowAt(0, tp(1), 4, 0, 500_000)
	tb.StartFlowAt(100*Microsecond, tp(2), 1, 4, 150_000)
	tb.StartFlowAt(120*Microsecond, tp(3), 2, 4, 30_000)
	tb.StartFlowAt(130*Microsecond, tp(4), 3, 4, 8_000)
	tb.StartFlowAt(200*Microsecond, tp(5), 1, 2, 1_460)
	tb.StartFlowAt(2*Millisecond, tp(6), 0, 4, 64_000)
	tb.Run(200 * Millisecond)
	for _, fl := range tb.Flows() {
		if !fl.Completed {
			panic(fmt.Sprintf("golden scenario: %s flow %d incomplete", transport, fl.ID))
		}
	}
	return FlowsDigest(tb.Flows())
}

var goldenTransports = []string{"flexpass", "expresspass", "dctcp", "homa", "phost", "mixed"}

// TestGoldenDigest proves determinism end to end: every transport's
// scenario run twice yields the same digest, and (on the recording
// platform) the digest equals the checked-in pre-optimization value.
func TestGoldenDigest(t *testing.T) {
	for _, tp := range goldenTransports {
		tp := tp
		t.Run(tp, func(t *testing.T) {
			d1 := runGoldenScenario(tp, nil)
			d2 := runGoldenScenario(tp, nil)
			if d1 != d2 {
				t.Fatalf("non-deterministic: %s vs %s", d1, d2)
			}
			t.Logf("%s digest: %s", tp, d1)
			want := goldenDigests[tp]
			if runtime.GOARCH != "amd64" {
				// Floating-point scheduling arithmetic may fuse differently
				// off amd64; determinism within the platform still holds.
				t.Skipf("golden constants recorded on amd64; got %s", runtime.GOARCH)
			}
			if d1 != want {
				t.Fatalf("digest %s != recorded %s — scheduling-visible behaviour changed", d1, want)
			}
		})
	}
}

// TestGoldenDigestPooled proves packet recycling is invisible to results,
// with the heap as the reference: every golden scenario is run again on a
// testbed whose free lists were stripped from every node (each frame is
// then a fresh heap object nobody reuses) and must produce the
// byte-identical digest. A transport that retains a *Packet past its
// handler reads a recycled frame in the pooled run only, and fails here.
func TestGoldenDigestPooled(t *testing.T) {
	stripPools := func(tb *Testbed) {
		for _, sw := range tb.Fabric.Net.Switches {
			sw.SetPool(nil)
		}
		for _, h := range tb.Fabric.Net.Hosts {
			h.SetPool(nil)
		}
	}
	for _, tp := range goldenTransports {
		tp := tp
		t.Run(tp, func(t *testing.T) {
			pooled := runGoldenScenario(tp, nil)
			plain := runGoldenScenario(tp, stripPools)
			if plain != pooled {
				t.Fatalf("pooling changed results: plain %s pooled %s", plain, pooled)
			}
		})
	}
}

// TestTestbedRecyclesFrames keeps TestGoldenDigestPooled from passing
// vacuously: a testbed is pooled as built, so the frame one host consumed
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
