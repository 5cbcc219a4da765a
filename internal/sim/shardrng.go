package sim

import (
	"math/rand"
	randv2 "math/rand/v2"
)

// pcgSource adapts math/rand/v2's PCG generator to the math/rand
// Source64 interface, so a shard engine's Rand keeps the *rand.Rand type
// every consumer in the repo already holds. rand.Rand detects Source64
// and draws through Uint64 directly.
type pcgSource struct{ pcg *randv2.PCG }

func (s pcgSource) Uint64() uint64 { return s.pcg.Uint64() }
func (s pcgSource) Int63() int64   { return int64(s.pcg.Uint64() >> 1) }
func (s pcgSource) Seed(seed int64) {
	s.pcg.Seed(uint64(seed), uint64(seed))
}

// shardStream derives the two 64-bit PCG seed words for one shard of a
// sharded run. The mixing constants are SplitMix64's, so nearby
// (rootSeed, shard) pairs land in unrelated streams.
func shardStream(rootSeed int64, shard int) (uint64, uint64) {
	mix := func(z uint64) uint64 {
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	base := uint64(rootSeed) * 0x9e3779b97f4a7c15
	return mix(base + uint64(shard)*0x9e3779b97f4a7c15), mix(base ^ (uint64(shard)+1)*0xd1b54a32d192ed03)
}

// NewShardEngine builds the engine for shard `shard` of a sharded run
// seeded with rootSeed. Each shard gets its own PCG random stream
// derived from (rootSeed, shard id), so RNG draws are a pure function of
// that pair and never depend on cross-shard event interleaving. Shard
// counts don't nest streams: the same (rootSeed, shard) always yields
// the same stream regardless of how many shards the run uses.
//
// Single-threaded runs keep NewEngine's math/rand source untouched — a
// sharded run is a different RNG regime by construction (one global
// stream cannot be consumed in a reproducible order by concurrent
// shards), which is why schemes that draw from Engine.Rand during a run
// are reproducible per (seed, shards) pair rather than across shard
// counts. See internal/sim/shard.
func NewShardEngine(rootSeed int64, shard int) *Engine {
	s1, s2 := shardStream(rootSeed, shard)
	return newEngine(rand.New(pcgSource{pcg: randv2.NewPCG(s1, s2)}))
}
