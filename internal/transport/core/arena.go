package core

import "flexpass/internal/chunks"

// Arena is a scheme instance's endpoint arena: the sender and receiver
// structs (S and R) of every flow it starts, and their per-segment
// arrays (Segs), are carved from shared arrays, so a flow's set-up costs
// what its engine callbacks allocate, not a heap object per struct and
// per array. Each transport's Config points to one, made by its
// DefaultConfig; like FlexPass's record free list it belongs to one scheme
// instance on one plane, so one engine's goroutine: no lock, and no array
// holds endpoints of two shards. The config's fields are never written;
// the arena it points to is. Nothing carved is given back: an endpoint
// lives as long as its flow's entry in the run's flow table.
type Arena[S, R any] struct {
	Segs
	senders   chunks.Of[S]
	receivers chunks.Of[R]
}

// Sizes in bytes of the arrays an arena makes: endpoint structs double
// from endFirst to endMax, per-segment arrays from segFirst to segMax. A
// long flow gets arrays of its own (chunks.Of.Take). What an arena has
// made and not carved when its run ends is waste, at most one array of
// each kind, so the arrays stay a few kilobytes: a farm makes an arena
// per point.
const (
	endFirst, endMax = 4 << 10, 8 << 10
	segFirst, segMax = 512, 2 << 10
)

// NewArena returns an empty arena.
func NewArena[S, R any]() *Arena[S, R] {
	return &Arena[S, R]{
		Segs: Segs{
			states: chunks.Bytes[uint8](segFirst, segMax),
			seqs:   chunks.Bytes[int32](segFirst, segMax),
			words:  chunks.Bytes[uint64](segFirst, segMax),
		},
		senders:   chunks.Bytes[S](endFirst, endMax),
		receivers: chunks.Bytes[R](endFirst, endMax),
	}
}

// Or returns a, or for a nil a an arena of its own with nothing carved
// yet, whose zero arrays make every struct and array exactly: a config
// built by hand, with no arena, carves through the same code.
func (a *Arena[S, R]) Or() *Arena[S, R] {
	if a == nil {
		return new(Arena[S, R])
	}
	return a
}

// Sender returns a zeroed S.
func (a *Arena[S, R]) Sender() *S { return &a.senders.Take(1)[0] }

// Receiver returns a zeroed R.
func (a *Arena[S, R]) Receiver() *R { return &a.receivers.Take(1)[0] }

// Segs carves per-segment arrays: segment states, sub-flow indices and
// lost queues, and arrival bitmaps. Every run is capped, so a slice that
// outgrows its run (a lost queue, a bitmap) moves to the heap and never
// writes into its neighbour's.
type Segs struct {
	states chunks.Of[uint8]
	seqs   chunks.Of[int32]
	words  chunks.Of[uint64]
}

// States returns n zeroed segment states.
func (a *Segs) States(n int) []uint8 { return a.states.Take(n) }

// Seqs returns n zeroed sequence numbers.
func (a *Segs) Seqs(n int) []int32 { return a.seqs.Take(n) }

// Bitmap returns an empty bitmap with room for n members.
func (a *Segs) Bitmap(n int) Bitmap { return a.words.Take((n + 63) / 64) }
