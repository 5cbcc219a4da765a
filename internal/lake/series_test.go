package lake

import (
	"strings"
	"testing"

	"flexpass/internal/metrics"
	"flexpass/internal/obs"
	"flexpass/internal/sim"
)

// deltas is a counter series of per-100µs deltas, its first sample taken
// at 100µs, as a prober writes it.
func deltas(entity, metric string, vs ...int64) obs.SeriesData {
	s := obs.SeriesData{Entity: entity, Metric: metric, Kind: obs.Cumulative.String(),
		IntervalPs: int64(100 * sim.Microsecond), StartPs: int64(100 * sim.Microsecond)}
	for _, v := range vs {
		s.Values.Append(v)
	}
	return s
}

// repeat is n copies of v.
func repeat(v int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// TestSeriesTable: 100µs deltas sum into 1 ms windows printed in Gb/s,
// a shorter series pads with zeros, and a missing series is an error.
func TestSeriesTable(t *testing.T) {
	run := &obs.Run{Series: []obs.SeriesData{
		deltas("transport/flexpass", "rx_bytes", repeat(125_000, 20)...), // 1.25 MB a ms: 10 Gb/s
		deltas("port/h0:nic", "tx_bytes", repeat(1_250, 10)...),
	}}
	cols, err := ParseSeries("FlexPass=transport/flexpass:rx_bytes,Flow1=port/h0:nic:tx_bytes")
	if err != nil {
		t.Fatal(err)
	}
	tab, err := SeriesTable(run, cols)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range append([][]string{tab.Header}, tab.Rows...) {
		got = append(got, strings.Join(r, ","))
	}
	if want := "time_ms,FlexPass,Flow1 1.0,10.000,0.100 2.0,10.000,0.000"; strings.Join(got, " ") != want {
		t.Errorf("series table %q, want %q", strings.Join(got, " "), want)
	}
	if _, err := SeriesTable(run, []SeriesCol{{Name: "X", Entity: "transport/homa", Metric: "rx_bytes"}}); err == nil {
		t.Error("a missing series gave a table")
	}
	if _, err := ParseSeries("X=transport/homa"); err == nil {
		t.Error("a series without a metric parsed")
	}
}

// TestLegacyStarved: windows where no transport delivers are skipped, and
// a window counts as starved when DCTCP gets under a fifth of the link.
func TestLegacyStarved(t *testing.T) {
	// Windows: both busy and DCTCP at 5 Gb/s; DCTCP at 1 Gb/s; idle.
	dctcp := append(append(repeat(62_500, 10), repeat(12_500, 10)...), repeat(0, 10)...)
	other := append(repeat(62_500, 20), repeat(0, 10)...)
	run := &obs.Run{
		Manifest: obs.Manifest{Config: map[string]string{"link_rate": "10.00Gbps"}},
		Flows:    []metrics.FlowRecord{{Legacy: true}, {}},
		Series:   []obs.SeriesData{deltas("transport/dctcp", "rx_bytes", dctcp...), deltas("transport/flexpass", "rx_bytes", other...)},
	}
	if got := legacyStarved(run); got != 0.5 {
		t.Errorf("legacy starved %g of the busy windows, want 0.5", got)
	}
	run.Flows = run.Flows[1:]
	if got := legacyStarved(run); got != 0 {
		t.Errorf("a run without legacy flows reads %g starved, want 0", got)
	}
}
