package obs

import "unsafe"

// The registry's per-source yardsticks: the slot a source takes in its
// slice, and what one entry of a Go map from its name to that slot takes
// (key, index, control byte).
const (
	SourceSize = unsafe.Sizeof(source{})
	MapSlot    = unsafe.Sizeof(sourceKey{}) + unsafe.Sizeof(0) + 1
)
