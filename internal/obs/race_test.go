//go:build race

package obs

// The race detector drops a random share of sync.Pool puts, so
// encoding/json's pooled encoder state allocates per line under -race.
func init() { raceEnabled = true }
