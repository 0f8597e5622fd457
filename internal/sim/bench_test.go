package sim

import (
	"testing"

	"dcasim/internal/config"
	"dcasim/internal/workload"
)

// benchMixConfig is the first Table I mix on the bench-scale machine.
func benchMixConfig() config.Config {
	cfg := config.Bench()
	cfg.Benchmarks = append([]string(nil), workload.TableI()[0].Benchmarks[:]...)
	return cfg
}

// resultSink keeps the benchmarked runs' results alive.
var resultSink Result

// BenchmarkWarmUp builds a fresh functional state and runs the
// functional warm-up: the phase that owns most of a cold figure.
func BenchmarkWarmUp(b *testing.B) {
	cfg := benchMixConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Warm(cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTimedRegion runs the timed region over one warm state,
// keeping the state for the next iteration as a warm-group member does.
func BenchmarkTimedRegion(b *testing.B) {
	cfg := benchMixConfig()
	w, err := Warm(cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if resultSink, err = w.Run(cfg, true); err != nil {
			b.Fatal(err)
		}
		if w.Spent() {
			b.Fatal("the kept run spent the warm state")
		}
	}
}
