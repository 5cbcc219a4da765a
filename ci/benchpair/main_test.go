package main

import (
	"reflect"
	"testing"
)

func TestQuantile(t *testing.T) {
	for _, c := range []struct {
		s    []float64
		p    float64
		want float64
	}{
		{nil, 0.5, 0},
		{[]float64{7}, 0.25, 7},
		{[]float64{1, 2, 3, 4}, 0.25, 1.75},
		{[]float64{1, 2, 3, 4}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4}, 0.75, 3.25},
		{[]float64{1, 2, 3, 4, 5}, 0.5, 3},
		{[]float64{1, 2, 3, 4, 5}, 1, 5},
	} {
		if got := quantile(c.s, c.p); got != c.want {
			t.Errorf("quantile(%v, %g) = %g, want %g", c.s, c.p, got, c.want)
		}
	}
}

// TestCompare: wins and losses are counted pair by pair in the metric's
// better direction, ties for neither, and a gain is claimable only when
// the medians are further apart than the base's quartile spread.
func TestCompare(t *testing.T) {
	base := []float64{10, 12, 11, 13, 10}
	c := compare("lower", base, []float64{8, 12, 9, 14, 7})
	if c.Wins != 3 || c.Losses != 1 {
		t.Errorf("wins %d losses %d, want 3 and 1", c.Wins, c.Losses)
	}
	if want := (quartiles{10, 11, 12}); c.Base != want {
		t.Errorf("base quartiles %+v, want %+v", c.Base, want)
	}
	if c.Claimable || c.DeltaPct != -200.0/11 {
		t.Errorf("median 11 -> 9, no further than the spread of 2: claimable %t, delta %g%%", c.Claimable, c.DeltaPct)
	}
	if c := compare("lower", base, []float64{5, 6, 5, 6, 5}); !c.Claimable || c.Wins != 5 {
		t.Errorf("median 11 -> 5: claimable %t, wins %d", c.Claimable, c.Wins)
	}
	if c := compare("higher", base, []float64{5, 6, 5, 6, 5}); c.Wins != 0 || c.Losses != 5 {
		t.Errorf("higher is better: wins %d losses %d, want 0 and 5", c.Wins, c.Losses)
	}
	if c := compare("lower", base, base); c.Claimable || c.Wins+c.Losses != 0 || !reflect.DeepEqual(c.Base, c.Change) {
		t.Errorf("base against itself: %+v", c)
	}
}
