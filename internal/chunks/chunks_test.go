package chunks

import (
	"testing"
	"unsafe"
)

// follows reports whether run b starts right where a, a run carved just
// before it, ends: the two share an array.
func follows[T any](a, b []T) bool {
	var t T
	end := unsafe.Add(unsafe.Pointer(unsafe.SliceData(a)), uintptr(len(a))*unsafe.Sizeof(t))
	return end == unsafe.Pointer(unsafe.SliceData(b))
}

// TestTakeNeverReachesNextRun: runs carved from one array are capped at
// their length, so appending to one moves it elsewhere and leaves the run
// after it as it was.
func TestTakeNeverReachesNextRun(t *testing.T) {
	c := Sized[int](8, 8)
	a, b := c.Take(3), c.Take(3)
	if !follows(a, b) {
		t.Fatal("two short runs did not share an array")
	}
	for i := range b {
		b[i] = 7
	}
	grown := append(a, 1, 2, 3)
	for i, v := range b {
		if v != 7 {
			t.Fatalf("append to the run before wrote %d into b[%d]", v, i)
		}
	}
	if follows(grown[:3], b) || cap(a) != 3 || cap(b) != 3 {
		t.Fatalf("caps %d and %d, want each run capped at its length 3", cap(a), cap(b))
	}
}

// TestOversizeRunLeavesCurrentArray: a run longer than a new array would
// be, or one that does not fit while more than a quarter of the longest
// array is left, gets an array of its own, and the next run still comes
// from the current array.
func TestOversizeRunLeavesCurrentArray(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
	}{
		{"longer than an array", 20},
		{"longer than the rest", 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := Sized[int](8, 8)
			first := c.Take(2)
			own := c.Take(tc.n)
			if len(own) != tc.n || cap(own) != tc.n {
				t.Fatalf("run of %d: len %d cap %d, want an exact array", tc.n, len(own), cap(own))
			}
			if next := c.Take(6); !follows(first, next) {
				t.Fatal("the run after the long one did not come from the current array")
			}
		})
	}
	// With at most a quarter of the longest array left, a run that does
	// not fit starts a new array and drops the rest.
	c := Sized[int](8, 8)
	c.Take(6)
	a := c.Take(3)
	if b := c.Take(1); !follows(a, b) {
		t.Fatal("a new array did not serve the runs after it")
	}
}

// TestArraysDouble: arrays grow from the first length to the longest, and
// a zeroed run comes back whatever the array held before.
func TestArraysDouble(t *testing.T) {
	c := Sized[int](2, 8)
	var lens []int
	for i := 0; i < 5; i++ {
		lens = append(lens, c.next)
		c.free = c.free[:0] // use the array up
		if r := c.Take(1); r[0] != 0 {
			t.Fatalf("run %d not zeroed: %v", i, r)
		}
	}
	want := []int{2, 4, 8, 8, 8}
	for i := range want {
		if lens[i] != want[i] {
			t.Fatalf("array lengths %v, want %v", lens, want)
		}
	}
}

// TestZeroMakesExactArrays: the zero Of makes every run an array of its
// own, exactly as long as the run, and keeps nothing.
func TestZeroMakesExactArrays(t *testing.T) {
	var c Of[int]
	for _, n := range []int{1, 3, 1, 5} {
		if r := c.Take(n); len(r) != n || cap(r) != n {
			t.Fatalf("run of %d: len %d cap %d, want an exact array", n, len(r), cap(r))
		}
		if c.free != nil || c.next != 0 {
			t.Fatalf("the zero Of kept %d elements, next array %d", len(c.free), c.next)
		}
	}
}

// TestBytesFitsSizeClasses: Bytes sizes arrays in whole elements that fit
// the byte lengths, and at least one.
func TestBytesFitsSizeClasses(t *testing.T) {
	c := Bytes[[3]uint64](4096, 8192)
	if c.next != 170 || c.max != 341 {
		t.Fatalf("24-byte elements in 4 KB to 8 KB: arrays of %d to %d, want 170 to 341", c.next, c.max)
	}
	if big := Bytes[[1024]byte](512, 2048); big.next != 1 || big.max != 2 {
		t.Fatalf("1 KB elements in 512 B to 2 KB: arrays of %d to %d, want 1 to 2", big.next, big.max)
	}
}
