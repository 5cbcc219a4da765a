// Package plot renders simple ASCII line charts and bar charts in the
// terminal — enough to eyeball the CSV series cmd/experiments writes
// without leaving the shell (cmd/flexplot is the CLI).
package plot

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Series is one named line of (x, y) points.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Chart is a set of series sharing axes.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	Width  int // plot columns (default 72)
	Height int // plot rows (default 20)
	Series []Series
}

var glyphs = []byte{'*', 'o', '+', 'x', '#', '@', '%', '&'}

// Render writes the chart to w.
func (c *Chart) Render(w io.Writer) error {
	width, height := c.Width, c.Height
	if width <= 0 {
		width = 72
	}
	if height <= 0 {
		height = 20
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	any := false
	for _, s := range c.Series {
		for i := range s.X {
			if i >= len(s.Y) {
				break
			}
			any = true
			minX = math.Min(minX, s.X[i])
			maxX = math.Max(maxX, s.X[i])
			minY = math.Min(minY, s.Y[i])
			maxY = math.Max(maxY, s.Y[i])
		}
	}
	if !any {
		_, err := fmt.Fprintln(w, "(no data)")
		return err
	}
	if minY > 0 && minY < maxY/2 {
		minY = 0 // anchor at zero unless the range is narrow
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range c.Series {
		g := glyphs[si%len(glyphs)]
		for i := range s.X {
			if i >= len(s.Y) {
				break
			}
			col := int((s.X[i] - minX) / (maxX - minX) * float64(width-1))
			row := int((s.Y[i] - minY) / (maxY - minY) * float64(height-1))
			r := height - 1 - row
			if r >= 0 && r < height && col >= 0 && col < width {
				grid[r][col] = g
			}
		}
	}

	if c.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", c.Title); err != nil {
			return err
		}
	}
	yHi := formatTick(maxY)
	yLo := formatTick(minY)
	labelW := len(yHi)
	if len(yLo) > labelW {
		labelW = len(yLo)
	}
	for r, line := range grid {
		label := strings.Repeat(" ", labelW)
		switch r {
		case 0:
			label = pad(yHi, labelW)
		case height - 1:
			label = pad(yLo, labelW)
		case height / 2:
			label = pad(formatTick((maxY+minY)/2), labelW)
		}
		if _, err := fmt.Fprintf(w, "%s |%s\n", label, string(line)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s +%s\n", strings.Repeat(" ", labelW), strings.Repeat("-", width)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s  %-*s%s\n", strings.Repeat(" ", labelW),
		width-len(formatTick(maxX)), formatTick(minX), formatTick(maxX)); err != nil {
		return err
	}
	// Legend.
	var legend []string
	for si, s := range c.Series {
		legend = append(legend, fmt.Sprintf("%c %s", glyphs[si%len(glyphs)], s.Name))
	}
	if _, err := fmt.Fprintf(w, "  %s", strings.Join(legend, "   ")); err != nil {
		return err
	}
	if c.XLabel != "" || c.YLabel != "" {
		if _, err := fmt.Fprintf(w, "   [x: %s, y: %s]", c.XLabel, c.YLabel); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return strings.Repeat(" ", w-len(s)) + s
}

func formatTick(v float64) string {
	av := math.Abs(v)
	switch {
	case av >= 1000:
		return fmt.Sprintf("%.0f", v)
	case av >= 10:
		return fmt.Sprintf("%.1f", v)
	case av == 0:
		return "0"
	default:
		return fmt.Sprintf("%.2f", v)
	}
}
