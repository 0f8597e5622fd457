package config

// replicateStride separates the seed streams of replicate runs. It is
// prime and larger than the maximum per-mix seed offset the experiment
// runner applies (mixID*1_000_003 with mixID <= 30), so replicate k of
// one mix can never collide with replicate 0 of another.
const replicateStride = 100_000_007

// ReplicateSeed derives the seed of replicate k from a base seed.
// Replicate 0 is the base seed itself, so a single-replicate run is
// bit-identical to an unreplicated one.
func ReplicateSeed(seed uint64, k int) uint64 {
	return seed + uint64(k)*replicateStride
}
