package dcasim

import (
	"testing"

	"dcasim/internal/exp"
)

// Allocation pins: whole-run allocation counts, which do not depend on
// the host the way times do. Each pin is the count measured when it was
// set; a run may allocate at most 1% more. AllocsPerRun counts every
// allocation in the process, so these tests stay in a package that runs
// no parallel tests and leaves no goroutines behind. Counts depend on
// the Go release: CI runs the toolchain the pins were measured with.
//
// An intended change in allocations moves a pin: re-measure, set the new
// count here and record the change in CHANGES.md.

// checkAllocPin fails when measured exceeds pin by more than 1%.
func checkAllocPin(t *testing.T, what string, measured float64, pin int) {
	t.Helper()
	t.Logf("%s allocates %.0f times (pin %d)", what, measured, pin)
	if limit := pin + pin/100; measured > float64(limit) {
		t.Errorf("%s allocates %.0f times, pin %d allows at most %d (+1%%); if the growth is intended, re-pin to the new count and record it in CHANGES.md",
			what, measured, pin, limit)
	}
}

// TestAllocPinSimOneRun pins BenchmarkSimOneRun's run: one DCA
// simulation at TestConfig().
func TestAllocPinSimOneRun(t *testing.T) {
	cfg := TestConfig()
	cfg.Benchmarks = []string{"soplex", "mcf", "gcc", "libquantum"}
	cfg.Design = DCA
	var err error
	n := testing.AllocsPerRun(3, func() {
		_, err = Run(cfg)
	})
	if err != nil {
		t.Fatal(err)
	}
	checkAllocPin(t, "Run", n, 670)
}

// TestAllocPinFig8 pins BenchmarkFig8's shape at one worker: a cold
// Fig. 8 over the first four Table I mixes at TestConfig().
func TestAllocPinFig8(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes this path's allocation count")
	}
	var err error
	n := testing.AllocsPerRun(1, func() {
		_, err = NewRunner(TestConfig(), TableIMixes()[:4], 1).Figure("fig8")
	})
	if err != nil {
		t.Fatal(err)
	}
	checkAllocPin(t, `Figure("fig8")`, n, 23688)
}

// TestAllocPinWarmFigures pins the sweep-cached benchmark's pass: every
// registered figure rendered on a fresh one-worker runner at
// TestConfig() over two mixes, served entirely from a result cache that
// an earlier pass filled.
func TestAllocPinWarmFigures(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes this path's allocation count")
	}
	cache, err := OpenResultCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pass := func(workers int) (*Runner, error) {
		r := NewRunner(TestConfig(), TableIMixes()[:2], workers)
		r.SetCache(cache)
		for _, name := range exp.FigureNames() {
			if _, err := r.Figure(name); err != nil {
				return nil, err
			}
		}
		return r, nil
	}
	if _, err := pass(0); err != nil {
		t.Fatal(err)
	}
	var r *Runner
	n := testing.AllocsPerRun(1, func() { r, err = pass(1) })
	if err != nil {
		t.Fatal(err)
	}
	if sims := r.SimRuns(); sims != 0 {
		t.Fatalf("warm pass simulated %d runs, want 0", sims)
	}
	checkAllocPin(t, "warm all-figures pass", n, 8651)
}
