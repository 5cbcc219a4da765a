package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"

	"flexpass/internal/metrics"
	"flexpass/internal/obs"
	"flexpass/internal/sim"
	"flexpass/internal/topo"
	"flexpass/internal/transport"
)

// goldenRow pins one run: the obs.FlowsDigest of its flow records — the
// sha256 of its artifact's flow lines — its one-engine event count and
// its fabric drop totals.
type goldenRow struct {
	digest                            string
	events                            uint64
	dropsRed, dropsCredit, dropsOther int64
}

// golden is the repository's one golden table. A scheme's row is
// shardScenario(scheme) on one engine; "faulted" is the pinned trace
// under a flap-and-burst plan (shardFaultScenario + shardFaultPlan,
// flexpass), "flexpass/red" shardScenario(flexpass) with a 3 kB
// selective-dropping threshold (redScenario), "flexpass/<option>"
// shardScenario(flexpass) under one sender option (optionRows), and
// "testbed/<transport>" the façade's hand-driven testbed (testbedRun). A test that needs a
// pinned point's flows compares with its row (matchGolden) rather than
// running the point again. Recorded on linux/amd64, go1.24; they change
// only when the simulated model does, and a mismatch prints the row that
// replaces the recorded one.
var golden = map[string]goldenRow{
	"dctcp":               {"cb85012035e236b6b87d0771584c5c1d76d6b5d113999e5e79a00ed76f46775c", 159873, 0, 0, 11},
	"expresspass":         {"7628b750fc4c271633dd55c75bc25ff4000643f7f867ff84847826b91820ab4e", 191900, 0, 154, 230},
	"naive":               {"7628b750fc4c271633dd55c75bc25ff4000643f7f867ff84847826b91820ab4e", 191900, 0, 154, 230},
	"owf":                 {"1ee61c24aab70ffd1f488a1ca0979dc707a107f71292cffbe3465565a4b1037c", 188604, 0, 297, 0},
	"layering":            {"b3782138738e985f67d5e78252c3798d40d32e0aa2a2e8202687a1f2a8120fba", 189359, 0, 186, 110},
	"flexpass":            {"3c360ee37879d4f620ccc3613879a3047af1562d23a23b9f3656e826736b1063", 176361, 0, 81, 234},
	"flexpass-altq":       {"27f0a35a61989ac7b25986023b481e7ab25d20d01dbfbfee71d00a870c5cf29a", 182448, 0, 53, 43},
	"flexpass-rc3":        {"d5e499fc7ecaed9da647c86ebd053bf7658bc1c9fa104b9e4fbbedad8731bf6b", 177298, 0, 14, 254},
	"homa":                {"4d926a63eb226c169e31a1abba2b8e45216ced70f43e0c2321ba94e660b8b511", 951313, 0, 0, 341},
	"phost":               {"79ea7587e4c67480f8b382de746bc6876fb77d0b9c1e42b0284377002ef4e0f3", 176627, 0, 0, 0},
	"faulted":             {"e26aba1728b2acebc1ede802e296c39a21e35807f81c3e2779b56046bacbeccb", 65906, 0, 0, 0},
	"flexpass/red":        {"4dd23e448b1d14af92dc310fc8f6bfeb3916bb3cdec8e34af69c3e8a0dfcacc8", 185274, 164, 134, 5},
	"flexpass/reno":       {"d6d98a52f9628cbd9acf87fdb4437ffe6682e83518c59f7e746a2c9933a67731", 179069, 112, 35, 429},
	"flexpass/noproretx":  {"cbfa6a9a383983cacbde12f5308fc61d26b14816c6ef903ef091486f06b3d761", 177239, 0, 72, 234},
	"flexpass/precredit":  {"33cb51294833facab41214c4b9c7d80090a6aef9dd8a41c8427764702e9ac636", 184117, 0, 209, 0},
	"testbed/flexpass":    {"49cec2d5d2f562ce522b76954898fec049dc25dafd59faef5f10b181bb0aecc0", 21075, 0, 114, 0},
	"testbed/expresspass": {"64aba0c9a8c60eee2d9e1ec7442207ad0ea63dd545789812bc6f357f2d1d3659", 27311, 0, 755, 0},
	"testbed/dctcp":       {"0f678fada9a80e798a72bc9b7364db6037eb19a07a5f5581c3c4e6ee21147da3", 15595, 0, 0, 0},
	"testbed/homa":        {"138b3cb376b54388ae4e7cec492c37fdde890d18f2fc188879765b3fc7d34654", 19982, 0, 0, 0},
	"testbed/phost":       {"27f18f806b6ed9b91429dc603a6b039009d4a2ea67d9c3b08d505ca7aedb6316", 22349, 0, 0, 0},
	"testbed/mixed":       {"5353cdfda09bed69dfb07ea9d04ab6d4baad9b056c5f3b667f6a949ebf4ec50b", 20149, 0, 221, 0},
}

// matchGolden fails t unless res gives golden[name]: its digest and drop
// totals at any shard count, and on one engine its event count (a
// sharded run adds shard/inject events). The rows were recorded on
// amd64, so elsewhere it skips.
func matchGolden(t *testing.T, res *Result, name string) {
	t.Helper()
	want := golden[name]
	got := goldenRow{obs.FlowsDigest(res.Flows.Records), res.Events, res.DropsRed, res.DropsCredit, res.DropsOther}
	note := ""
	if res.Scenario.Shards > 1 {
		got.events, note = want.events, " (events as recorded; shards 1 counts them)"
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden constants recorded on amd64; got %s", runtime.GOARCH)
	}
	if got != want {
		t.Fatalf("shards %d: the simulated model changed; the row is now%s\n\t%q: {%q, %d, %d, %d, %d},",
			res.Scenario.Shards, note, name, got.digest, got.events, got.dropsRed, got.dropsCredit, got.dropsOther)
	}
}

// sameFlows fails t, prefixed with what, at the first difference between
// two runs' flow records — naming its index, ID and field — or their
// drop totals.
func sameFlows(t *testing.T, what string, got, want *Result) {
	t.Helper()
	if d := flowsDiff(got, want); d != "" {
		t.Fatalf("%s: %s", what, d)
	}
}

// flowsDiff is sameFlows' finding, or "" when the runs agree.
func flowsDiff(got, want *Result) string {
	if d := metrics.RecordsDiff(got.Flows.Records, want.Flows.Records); d != "" {
		return d
	}
	if g, w := [3]int64{got.DropsRed, got.DropsCredit, got.DropsOther}, [3]int64{want.DropsRed, want.DropsCredit, want.DropsOther}; g != w {
		return fmt.Sprintf("drops (red, credit, other) %v, want %v", g, w)
	}
	return ""
}

// testbedTransports are the testbed rows' transports; "mixed" runs
// FlexPass, DCTCP and ExpressPass side by side.
var testbedTransports = []string{"flexpass", "expresspass", "dctcp", "homa", "phost", "mixed"}

// testbedRun is the façade's golden scenario, built as NewTestbed builds
// a testbed: a mixed-size contention run on the 5-host single switch —
// an incast into host 4, a reverse bulk flow and staggered short flows,
// seven flows on transport tp — for 200 ms, by which every flow must
// have completed. The root package's TestGoldenDigest runs the same
// seven flows through NewTestbed and requires this session's records.
func testbedRun(t *testing.T, tp string) *Result {
	t.Helper()
	sc := TestbedScenario(topo.SingleSwitchLayout{N: 5})
	sc.Seed = 7
	s := Open(sc)
	for i, f := range []struct {
		at       sim.Time
		src, dst int
		size     int64
	}{
		{0, 0, 4, 2_000_000},
		{0, 4, 0, 500_000},
		{100 * sim.Microsecond, 1, 4, 150_000},
		{120 * sim.Microsecond, 2, 4, 30_000},
		{130 * sim.Microsecond, 3, 4, 8_000},
		{200 * sim.Microsecond, 1, 2, 1_460},
		{2 * sim.Millisecond, 0, 4, 64_000},
	} {
		name := tp
		if tp == "mixed" {
			name = []string{transport.SchemeFlexPass, transport.SchemeDCTCP, transport.SchemeExpressPass}[i%3]
		}
		s.StartFlow(f.at, name, f.src, f.dst, f.size)
	}
	s.Run(200 * sim.Millisecond)
	res := s.Close()
	if n := incomplete(res); n != 0 {
		t.Fatalf("%s: %d of %d testbed flows incomplete", tp, n, len(res.Flows.Records))
	}
	return res
}

// TestTestbedGolden pins the façade's path — a one-plane session from
// TestbedScenario, fed its flows by StartFlow — to its rows. The root
// package's TestGoldenDigest holds NewTestbed to this session and
// TestGoldenDigestPooled holds it to its run with the pools stripped.
// One plane at any shard count, so race-shard's pattern leaves it out.
func TestTestbedGolden(t *testing.T) {
	for _, tp := range testbedTransports {
		t.Run(tp, func(t *testing.T) {
			matchGolden(t, testbedRun(t, tp), "testbed/"+tp)
		})
	}
}

// optionRows are the golden rows of shardScenario(flexpass) under one
// scheme option each. The options act on the sender alone, and the
// shard twins of the plain flexpass row already cover the cut, so they
// run on one engine.
var optionRows = []struct {
	name string
	opts map[string]string
}{
	{"flexpass/reno", map[string]string{transport.OptReactive: "reno"}},
	{"flexpass/noproretx", map[string]string{transport.OptDisableProRetx: "1"}},
	{"flexpass/precredit", map[string]string{transport.OptPreCreditOnly: "1"}},
}

// TestOptionGolden pins each FlexPass scheme option to its row, which
// must differ from the plain flexpass row: a row equal to it would pin
// nothing the plain row does not.
func TestOptionGolden(t *testing.T) {
	for _, r := range optionRows {
		t.Run(r.name, func(t *testing.T) {
			if golden[r.name].digest == golden[string(SchemeFlexPass)].digest {
				t.Fatalf("%s pins the plain flexpass row", r.name)
			}
			sc := shardScenario(SchemeFlexPass, 1)
			sc.SchemeOptions = r.opts
			matchGolden(t, Run(sc), r.name)
		})
	}
}

// TestArtifactFlowsDigest: the golden digest is the artifact's — the
// sha256 of the flow lines a telemetry run writes is obs.FlowsDigest of
// its flows and the flexpass row's digest.
func TestArtifactFlowsDigest(t *testing.T) {
	sc := shardScenario(SchemeFlexPass, 1)
	sc.Telemetry = &obs.Options{}
	run := Run(sc).Telemetry
	var buf bytes.Buffer
	if err := run.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, line := range bytes.SplitAfter(buf.Bytes(), []byte("\n")) {
		if bytes.Contains(line, []byte(`"type":"flow"`)) {
			h.Write(line)
		}
	}
	lines, digest := hex.EncodeToString(h.Sum(nil)), obs.FlowsDigest(run.Flows)
	if lines != digest {
		t.Fatalf("sha256 of the flow lines %s != obs.FlowsDigest %s", lines, digest)
	}
	if runtime.GOARCH == "amd64" && digest != golden[string(SchemeFlexPass)].digest {
		t.Fatalf("artifact flow digest %s != the flexpass row's %s", digest, golden[string(SchemeFlexPass)].digest)
	}
}
