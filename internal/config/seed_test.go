package config

import "testing"

// TestReplicateSeedIdentity: replicate 0 is the base seed itself, so a
// single-replicate run hashes (and caches) identically to an
// unreplicated one.
func TestReplicateSeedIdentity(t *testing.T) {
	for _, s := range []uint64{0, 1, 42, 1 << 40} {
		if got := ReplicateSeed(s, 0); got != s {
			t.Fatalf("ReplicateSeed(%d, 0) = %d", s, got)
		}
	}
}

// TestReplicateSeedDistinct: replicate seeds must not collide with each
// other across nearby base seeds, nor with the per-mix seed offsets the
// experiment runner derives (base + mixID*1_000_003, mixID <= 30) —
// a collision would silently correlate two "independent" replicates.
func TestReplicateSeedDistinct(t *testing.T) {
	seen := map[uint64]string{}
	record := func(seed uint64, what string) {
		if prev, dup := seen[seed]; dup {
			t.Fatalf("seed collision: %s and %s both derive %d", prev, what, seed)
		}
		seen[seed] = what
	}
	for base := uint64(1); base <= 4; base++ {
		for mix := uint64(0); mix <= 30; mix++ {
			perMix := base + mix*1_000_003
			for k := 0; k < 8; k++ {
				record(ReplicateSeed(perMix, k), "base/mix/rep")
			}
		}
	}
}
