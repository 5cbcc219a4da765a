package lake

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"flexpass/internal/metrics"
	"flexpass/internal/obs"
	"flexpass/internal/sim"
	"flexpass/internal/units"
)

// SeriesWindow is the window a run's counter series are summed into for
// the throughput series (Figs 1, 7, 9) and the legacy_starved_frac
// column: the paper's testbed window.
const SeriesWindow = sim.Millisecond

// SeriesCol names one throughput series: an artifact counter series
// (entity, metric) printed under Name.
type SeriesCol struct {
	Name, Entity, Metric string
}

// ParseSeries parses "NAME=entity:metric,..." — the metric follows the
// last colon, so port entities such as "port/tor0.0<->agg0.0:fwd" work.
func ParseSeries(s string) ([]SeriesCol, error) {
	var out []SeriesCol
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part == "" {
			continue
		}
		name, src, ok := strings.Cut(part, "=")
		i := strings.LastIndex(src, ":")
		if !ok || name == "" || i <= 0 || i == len(src)-1 {
			return nil, fmt.Errorf("lake: bad series %q (want NAME=entity:metric)", part)
		}
		out = append(out, SeriesCol{Name: name, Entity: src[:i], Metric: src[i+1:]})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("lake: empty series list")
	}
	return out, nil
}

// windowed adds s's per-sample deltas into per-SeriesWindow sums: the
// sample taken at t falls in window ⌈t/SeriesWindow⌉ - 1.
func windowed(s *obs.SeriesData, into []int64) []int64 {
	s.Values.Each(func(i int, v int64) {
		w := int((s.StartPs + int64(i)*s.IntervalPs - 1) / int64(SeriesWindow))
		for len(into) <= w {
			into = append(into, 0)
		}
		into[w] += v
	})
	return into
}

// SeriesTable is cols' throughput in run, one row per SeriesWindow
// window: time_ms (the window's end), then each series in Gb/s.
func SeriesTable(run *obs.Run, cols []SeriesCol) (*Table, error) {
	sums := make([][]int64, len(cols))
	t := &Table{Header: []string{"time_ms"}}
	n := 0
	for i, c := range cols {
		j := slices.IndexFunc(run.Series, func(s obs.SeriesData) bool { return s.Entity == c.Entity && s.Metric == c.Metric })
		if j < 0 {
			return nil, fmt.Errorf("lake: the run has no series %s:%s", c.Entity, c.Metric)
		}
		if run.Series[j].Kind != obs.Cumulative.String() {
			return nil, fmt.Errorf("lake: %s:%s is not a counter series", c.Entity, c.Metric)
		}
		sums[i] = windowed(&run.Series[j], nil)
		n = max(n, len(sums[i]))
		t.Header = append(t.Header, c.Name)
	}
	for w := 0; w < n; w++ {
		row := []string{fmt.Sprintf("%.1f", (sim.Time(w+1) * SeriesWindow).Millis())}
		for _, sum := range sums {
			var v int64
			if w < len(sum) {
				v = sum[w]
			}
			row = append(row, fmt.Sprintf("%.3f", units.RateOf(v, SeriesWindow).Gbits()))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// legacyStarved is Fig 9(c)'s metrics.StarvationFraction over a run's
// series: of the SeriesWindow windows in which some transport delivered
// bytes (transport/* rx_bytes), the share in which transport/dctcp got
// less than 20 % of the manifest's link rate. A run without legacy flows
// reads 0.
func legacyStarved(r *obs.Run) float64 {
	if !slices.ContainsFunc(r.Flows, func(f metrics.FlowRecord) bool { return f.Legacy }) {
		return 0
	}
	var legacy, total []int64
	for i := range r.Series {
		s := &r.Series[i]
		if s.Metric != "rx_bytes" || !strings.HasPrefix(s.Entity, "transport/") {
			continue
		}
		total = windowed(s, total)
		if s.Entity == "transport/dctcp" {
			legacy = windowed(s, legacy)
		}
	}
	legacy = append(legacy, make([]int64, max(len(total)-len(legacy), 0))...)
	other, dctcp := make([]units.Rate, len(total)), make([]units.Rate, len(total))
	for w, v := range total {
		other[w], dctcp[w] = units.RateOf(v-legacy[w], SeriesWindow), units.RateOf(legacy[w], SeriesWindow)
	}
	_, starved := metrics.StarvationFraction(other, dctcp, linkRate(r.Manifest.Config["link_rate"]).Scale(0.2), true)
	return starved
}

// linkRate reads a units.Rate back from its String form ("10.00Gbps");
// anything else reads 0.
func linkRate(s string) units.Rate {
	for _, u := range []struct {
		suffix string
		unit   units.Rate
	}{{"Gbps", units.Gbps}, {"Mbps", units.Mbps}, {"Kbps", units.Kbps}, {"bps", units.BitPerSecond}} {
		if v, ok := strings.CutSuffix(s, u.suffix); ok {
			f, _ := strconv.ParseFloat(v, 64)
			return units.Rate(f * float64(u.unit))
		}
	}
	return 0
}
