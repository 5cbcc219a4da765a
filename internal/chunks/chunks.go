// Package chunks carves runs of values from shared arrays, so a structure
// built of many small parts — a fabric's ports and hosts, a flow's
// endpoints and their per-segment state — costs an allocation per array,
// not one per part. An Of belongs to one owner on one goroutine: it takes
// no lock, and an owner that keeps one per engine keeps the arrays of two
// shard goroutines apart.
package chunks

import "unsafe"

// Of hands out zeroed runs of Ts from the front of one array. Its arrays
// double from a first length to a longest one (Sized); the zero Of makes
// each run an array of its own, exactly as long as the run.
type Of[T any] struct {
	free []T
	next int // length of the next array made; 0 makes each run exactly
	max  int // the longest array made
}

// Sized returns an Of whose arrays start at first elements and double up
// to longest.
func Sized[T any](first, longest int) Of[T] {
	return Of[T]{next: first, max: longest}
}

// Bytes returns an Of whose arrays start at first bytes and double up to
// longest, in whole Ts (at least one). Powers of two are size classes of
// Go's allocator, so an array sized by them rounds up by less than a T,
// where one of 64 structs of 344 bytes rounds up by 11 %.
func Bytes[T any](first, longest int) Of[T] {
	size := int(unsafe.Sizeof(*new(T)))
	return Sized[T](max(first/size, 1), max(longest/size, 1))
}

// Take returns n zeroed Ts. The run is capped at n, so an append to it
// moves it to an array of its own and never writes into the next run. A
// run that does not fit what is left of the current array starts a new
// one, and the rest of the current array goes unused, unless the run is
// longer than a new array would be or the rest is more than a quarter of
// the longest array: then the run gets an array of its own, exactly n
// long, and leaves the current array for the runs after it. An array so
// leaves at most a quarter of the longest unused.
func (c *Of[T]) Take(n int) []T {
	if n > len(c.free) {
		if n > c.next || len(c.free) > c.max/4 {
			return make([]T, n)
		}
		c.free = make([]T, c.next)
		c.next = min(2*c.next, c.max)
	}
	out := c.free[:n:n]
	c.free = c.free[n:]
	return out
}
