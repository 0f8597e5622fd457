package exp

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzSweepSpec feeds arbitrary bytes to LoadSweep through a file, the
// way `dcasim sweep -spec` reads one. Whatever the input, LoadSweep
// either rejects it or returns a spec whose points all resolve to
// validated configs or fail with an error, exactly as RunSweep resolves
// them before simulating anything. Nothing may panic.
func FuzzSweepSpec(f *testing.F) {
	for _, pattern := range []string{"../../examples/sweep/*.json", "../../testdata/sweep_*.json"} {
		paths, err := filepath.Glob(pattern)
		if err != nil {
			f.Fatal(err)
		}
		for _, p := range paths {
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
		// A large product is a long sweep, not a malformed one: resolve
		// at most 64 runs per input.
		reps := spec.Replicates
		if reps < 1 {
			reps = 1
		}
		runs := reps
		for _, ax := range spec.Axes {
			if runs *= len(ax.Values); runs > 64 {
				return
			}
		}
		_, _, _ = spec.resolve(spec.Points(), reps)
	})
}
