package plot

import (
	"strings"
	"testing"
)

func TestChartRendersAllSeries(t *testing.T) {
	c := &Chart{
		Title: "throughput",
		Series: []Series{
			{Name: "a", X: []float64{0, 1, 2, 3}, Y: []float64{1, 2, 3, 4}},
			{Name: "b", X: []float64{0, 1, 2, 3}, Y: []float64{4, 3, 2, 1}},
		},
		Width: 40, Height: 10,
	}
	var b strings.Builder
	if err := c.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "throughput") {
		t.Error("title missing")
	}
	if !strings.Contains(out, "* a") || !strings.Contains(out, "o b") {
		t.Errorf("legend missing:\n%s", out)
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Error("data glyphs missing")
	}
	lines := strings.Split(out, "\n")
	if len(lines) < 12 {
		t.Fatalf("only %d lines rendered", len(lines))
	}
}

func TestChartEmpty(t *testing.T) {
	var b strings.Builder
	c := &Chart{}
	if err := c.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "no data") {
		t.Fatal("empty chart must say so")
	}
}

func TestChartConstantSeries(t *testing.T) {
	// Degenerate ranges (all same x or y) must not divide by zero.
	c := &Chart{Series: []Series{{Name: "flat", X: []float64{1, 1, 1}, Y: []float64{5, 5, 5}}}}
	var b strings.Builder
	if err := c.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "*") {
		t.Fatal("flat series not plotted")
	}
}
