package sim

// Pins the per-core seed derivation in openSources
// (cfg.Seed*1000003 + i*7919): with seeded replicates
// (config.ReplicateSeed) layered on top of per-mix seed offsets, a
// collision between the generator streams of two (seed, core) pairs
// would silently correlate runs that every statistic treats as
// independent — observable only as suspiciously tight confidence
// intervals, never as a failure.

import (
	"fmt"
	"testing"

	"dcasim/internal/config"
	"dcasim/internal/workload"
)

// streamPrefix runs the real openSources derivation for one seed and
// returns the first n ops of each core's generator, keyed for pairwise
// comparison. Every core runs the same benchmark so any two streams are
// drawn from the same profile and differ only through their seeds.
func streamPrefix(t *testing.T, seed uint64, cores, n int) [][]workload.Op {
	t.Helper()
	cfg := config.Test()
	cfg.Seed = seed
	cfg.Benchmarks = make([]string, cores)
	for i := range cfg.Benchmarks {
		cfg.Benchmarks[i] = "mcf"
	}
	gens, err := newGens(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]workload.Op, cores)
	for i, gen := range gens {
		out[i] = make([]workload.Op, n)
		for j := range out[i] {
			out[i][j] = gen.Next()
		}
	}
	return out
}

// TestPerCoreSeedStreamsDistinct asserts pairwise-distinct generator
// streams across adjacent base seeds, replicate-derived seeds, and core
// indices. Adjacent seeds are the dangerous ones: the derivation
// multiplies the seed by 1000003 and offsets cores by 7919, so a bug
// collapsing either factor would first show up between neighbours.
func TestPerCoreSeedStreamsDistinct(t *testing.T) {
	const cores, ops = 4, 64
	seeds := []uint64{1, 2, 3,
		config.ReplicateSeed(1, 1), config.ReplicateSeed(1, 2),
		config.ReplicateSeed(2, 1),
	}
	type stream struct {
		label string
		ops   []workload.Op
	}
	var streams []stream
	for _, s := range seeds {
		prefix := streamPrefix(t, s, cores, ops)
		for i, p := range prefix {
			streams = append(streams, stream{fmt.Sprintf("seed %d core %d", s, i), p})
		}
	}
	equal := func(a, b []workload.Op) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	for i := 0; i < len(streams); i++ {
		for j := i + 1; j < len(streams); j++ {
			if equal(streams[i].ops, streams[j].ops) {
				t.Errorf("generator streams coincide: %s vs %s (first %d ops identical)",
					streams[i].label, streams[j].label, ops)
			}
		}
	}
}

// TestPerCoreSeedDerivationReproducible: the same (seed, core) pair must
// regenerate the identical stream — the determinism half of the
// contract, without which replicate CIs would measure the RNG, not the
// machine.
func TestPerCoreSeedDerivationReproducible(t *testing.T) {
	const cores, ops = 2, 64
	a := streamPrefix(t, 7, cores, ops)
	b := streamPrefix(t, 7, cores, ops)
	for i := 0; i < cores; i++ {
		for j := 0; j < ops; j++ {
			if a[i][j] != b[i][j] {
				t.Fatalf("core %d op %d differs across identical configs", i, j)
			}
		}
	}
}
