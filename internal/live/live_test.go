package live

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"flexpass/internal/obs"
)

func testReadings() []obs.CounterData {
	// Entity-then-metric order, as Registry.Final produces.
	return []obs.CounterData{
		{Entity: "farm", Metric: "points_done", Kind: "delta", Value: 7},
		{Entity: "farm", Metric: "points_total", Kind: "instant", Value: 16},
		{Entity: "port/tor0:up0", Metric: "tx_bytes", Kind: "delta", Value: 12345},
		{Entity: "port/tor1:up0", Metric: "tx_bytes", Kind: "delta", Value: 999},
	}
}

// expositionLine matches one Prometheus text-exposition sample line.
var expositionLine = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*\{entity="[^"\n]*"\} -?\d+$`)

func TestWriteMetricsFormat(t *testing.T) {
	var b strings.Builder
	if err := WriteMetrics(&b, testReadings()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	// One TYPE line per metric family, one sample per reading.
	var types, samples int
	lastType := ""
	for _, l := range lines {
		if strings.HasPrefix(l, "# TYPE ") {
			types++
			lastType = l
			fields := strings.Fields(l)
			if len(fields) != 4 || (fields[3] != "counter" && fields[3] != "gauge") {
				t.Fatalf("malformed TYPE line %q", l)
			}
			continue
		}
		samples++
		if !expositionLine.MatchString(l) {
			t.Fatalf("malformed sample line %q", l)
		}
		if !strings.HasPrefix(l, strings.Fields(lastType)[2]) {
			t.Fatalf("sample %q not grouped under its TYPE line %q", l, lastType)
		}
	}
	if types != 3 {
		t.Fatalf("got %d TYPE lines, want 3 (points_done, points_total, tx_bytes)", types)
	}
	if samples != 4 {
		t.Fatalf("got %d samples, want 4", samples)
	}
	for _, want := range []string{
		"# TYPE flexpass_points_done counter",
		"# TYPE flexpass_points_total gauge",
		`flexpass_tx_bytes{entity="port/tor0:up0"} 12345`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestWriteMetricsSanitizesAndEscapes(t *testing.T) {
	var b strings.Builder
	err := WriteMetrics(&b, []obs.CounterData{
		{Entity: `we"ird\entity`, Metric: "fct p99-us", Kind: "instant", Value: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "flexpass_fct_p99_us{") {
		t.Fatalf("metric name not sanitized:\n%s", out)
	}
	if !strings.Contains(out, `entity="we\"ird\\entity"`) {
		t.Fatalf("label value not escaped:\n%s", out)
	}
}

func TestServerEndpoints(t *testing.T) {
	board := &RunBoard{}
	board.Publish(RunStatus{SimNowPs: 5, SimEndPs: 10, Events: 42, FlowsTotal: 3}, testReadings())
	srv := NewServer(func() any { return board.Status() }, board.Readings)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	code, body := get("/status")
	if code != 200 {
		t.Fatalf("/status -> %d", code)
	}
	var st RunStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/status is not JSON: %v\n%s", err, body)
	}
	if st.SimNowPs != 5 || st.Events != 42 || st.FlowsTotal != 3 {
		t.Fatalf("/status = %+v", st)
	}

	code, body = get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics -> %d", code)
	}
	if !strings.Contains(body, "flexpass_points_done") {
		t.Fatalf("/metrics missing bridged reading:\n%s", body)
	}

	code, body = get("/debug/pprof/cmdline")
	if code != 200 {
		t.Fatalf("/debug/pprof/cmdline -> %d", code)
	}
	_ = body

	code, _ = get("/nope")
	if code != 404 {
		t.Fatalf("/nope -> %d, want 404", code)
	}
}

func TestServerStartClose(t *testing.T) {
	srv := NewServer(nil, nil)
	bound, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + bound + "/status")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/status -> %d", resp.StatusCode)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRunBoardNil(t *testing.T) {
	var b *RunBoard
	b.Publish(RunStatus{}, nil) // must not panic
	if st := b.Status(); st != (RunStatus{}) {
		t.Fatalf("nil board status = %+v", st)
	}
	if r := b.Readings(); r != nil {
		t.Fatal("nil board readings must be nil")
	}
}
