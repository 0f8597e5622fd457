package exp

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzSweepSpec feeds arbitrary bytes to LoadSweep through a file, the
// way `dcasim sweep -spec` reads one. Whatever the input, LoadSweep
// either rejects it or returns a spec whose points all compile to
// validated configs and plan their runs, or fail with an error, exactly
// as RunSweep compiles and plans them before simulating anything.
// Nothing may panic.
func FuzzSweepSpec(f *testing.F) {
	for _, pattern := range []string{"../../examples/sweep/*.json", "../../testdata/sweep_*.json"} {
		paths, err := filepath.Glob(pattern)
		if err != nil {
			f.Fatal(err)
		}
		for _, p := range paths {
			// Every checked-in spec stays within the validation bounds.
			if _, err := LoadSweep(p); err != nil {
				f.Fatal(err)
			}
			data, err := os.ReadFile(p)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "spec.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		spec, err := LoadSweep(path)
		if err != nil {
			return
		}
		// A large product is a long sweep, not a malformed one: plan at
		// most 64 runs per input.
		runs := max(spec.Replicates, 1)
		for _, ax := range spec.Axes {
			if runs *= len(ax.Values); runs > 64 {
				return
			}
		}
		base, g, err := spec.grid()
		if err != nil {
			return
		}
		for _, row := range g.rows {
			for _, c := range row.cells {
				if err := c.cfg.Validate(); err != nil {
					t.Fatalf("point %v compiled to an invalid config: %v", row.labels, err)
				}
			}
		}
		_, _ = NewRunner(base, nil, 1).plan(g)
	})
}
