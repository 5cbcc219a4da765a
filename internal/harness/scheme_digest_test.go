package harness

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"

	"flexpass/internal/sim"
	"flexpass/internal/topo"
	"flexpass/internal/units"
	"flexpass/internal/workload"
)

// recordsDigest hashes every flow record of a run into one hex digest —
// the harness-level counterpart of the testbed FlowsDigest in the root
// package. Two runs match iff their flow-visible results are identical.
func recordsDigest(res *Result) string {
	h := fnv.New64a()
	var buf [8]byte
	w := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	wb := func(b bool) {
		if b {
			w(1)
		} else {
			w(0)
		}
	}
	for _, r := range res.Flows.Records {
		w(int64(r.ID))
		w(r.Size)
		w(int64(r.Start))
		w(int64(r.FCT))
		wb(r.Completed)
		wb(r.Legacy)
		w(int64(len(r.Transport)))
		h.Write([]byte(r.Transport))
		w(int64(r.Timeouts))
		w(int64(r.Retransmits))
		w(int64(r.ProRetx))
		w(int64(r.Redundant))
		w(r.MaxReorderB)
		w(r.RxBytes)
	}
	w(res.DropsRed)
	w(res.DropsCredit)
	w(res.DropsOther)
	return fmt.Sprintf("%016x", h.Sum64())
}

// schemeDigestScenario is a small mixed-deployment run: 6 hosts across
// two racks at 50% deployment, so every scheme exercises both its
// upgraded path and the legacy DCTCP path side by side.
func schemeDigestScenario(scheme Scheme) Scenario {
	return Scenario{
		Seed:       7,
		Clos:       topo.ClosParams{Pods: 2, AggPerPod: 1, TorPerPod: 1, HostsPerTor: 4, Cores: 1},
		LinkRate:   10 * units.Gbps,
		LinkDelay:  2 * sim.Microsecond,
		HostDelay:  sim.Microsecond,
		SwitchBuf:  1000 * units.KB,
		BufAlpha:   0.25,
		Scheme:     scheme,
		WQ:         0.5,
		Workload:   workload.WebSearch,
		Load:       0.7,
		Deployment: 0.5,
		Duration:   20 * sim.Millisecond,
		Drain:      60 * sim.Millisecond,
	}
}

// schemeGoldenDigests are the per-scheme digests of schemeDigestScenario,
// recorded BEFORE the transport layer was restructured around the scheme
// registry and the shared sender core. The refactor is required to be
// bit-for-bit behaviour-preserving, so these values must never change
// unless the simulated model itself intentionally changes.
//
// Recorded on linux/amd64, go1.24. Re-record with:
//
//	go test -run TestSchemeGoldenDigest -v ./internal/harness/
var schemeGoldenDigests = map[Scheme]string{
	SchemeNaive:        "546080fc91820d94",
	SchemeOWF:          "65c679d5ee8d2baf",
	SchemeLayering:     "7fdce0a486a1580f",
	SchemeFlexPass:     "aeccd046e5c24597",
	SchemeFlexPassAltQ: "5b041f342e8806c7",
	SchemeFlexPassRC3:  "bd2e7f4adeffdfe9",
}

// TestSchemeGoldenDigest builds every deployment scheme through the full
// harness (fabric profile + per-flow transport composition) and asserts
// the run's flow digest matches the pre-refactor golden value, run-twice
// deterministic.
func TestSchemeGoldenDigest(t *testing.T) {
	for scheme, want := range schemeGoldenDigests {
		scheme, want := scheme, want
		t.Run(string(scheme), func(t *testing.T) {
			d1 := recordsDigest(Run(schemeDigestScenario(scheme)))
			d2 := recordsDigest(Run(schemeDigestScenario(scheme)))
			if d1 != d2 {
				t.Fatalf("non-deterministic: %s vs %s", d1, d2)
			}
			t.Logf("%s digest: %s", scheme, d1)
			if runtime.GOARCH != "amd64" {
				t.Skipf("golden constants recorded on amd64; got %s", runtime.GOARCH)
			}
			if d1 != want {
				t.Fatalf("digest %s != recorded %s — scheme composition changed behaviour", d1, want)
			}
		})
	}
}
