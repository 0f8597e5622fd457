package dcasim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// tagCacheDashSpec is a sweep whose tagCacheHitRate column has no
// sample on one row: without a tag cache there are no lookups, so that
// cell must render "-".
const tagCacheDashSpec = `{
  "schema": 3,
  "name": "tag-cache-dash",
  "scale": "test",
  "base": {"Benchmarks": ["mcf", "lbm", "libquantum", "omnetpp"], "Org": "set-assoc"},
  "axes": [
    {"name": "tagcache", "values": [
      {"label": "none", "set": {"TagCacheKB": 0}},
      {"label": "64KB", "set": {"TagCacheKB": 64}}
    ]}
  ],
  "metrics": ["tagCacheHitRate", "dramTagAccesses"]
}`

// goldenSweeps renders the example and test sweep specs in every output
// format, so the sweep engine's bytes are pinned the way the figure
// goldens pin the tables.
func goldenSweeps() (string, error) {
	var inline SweepSpec
	if err := json.Unmarshal([]byte(tagCacheDashSpec), &inline); err != nil {
		return "", err
	}
	load := func(path string) (SweepSpec, error) { return LoadSweep(filepath.FromSlash(path)) }
	ff, err := load("examples/sweep/flushing_factor.json")
	if err != nil {
		return "", err
	}
	seeds, err := load("testdata/sweep_seeds.json")
	if err != nil {
		return "", err
	}
	cases := []struct {
		name string
		spec SweepSpec
		reps int
	}{
		{"examples/sweep/flushing_factor.json", ff, 0},
		{"testdata/sweep_seeds.json", seeds, 1},
		{"testdata/sweep_seeds.json", seeds, 3},
		{"inline tag-cache-dash", inline, 0},
	}
	var b bytes.Buffer
	for _, c := range cases {
		tbl, _, err := RunSweep(c.spec, SweepOpts{Workers: 2, Replicates: c.reps})
		if err != nil {
			return "", fmt.Errorf("%s: %w", c.name, err)
		}
		for _, format := range []string{"text", "csv", "json"} {
			fmt.Fprintf(&b, "== %s replicates=%d %s ==\n", c.name, c.reps, format)
			if err := tbl.Write(&b, format); err != nil {
				return "", err
			}
			b.WriteByte('\n')
		}
	}
	return b.String(), nil
}

// TestGoldenSweeps pins the rendered bytes of sweeps bit-for-bit: text,
// CSV and JSON, single-run and replicated, and a column with a missing
// sample. Regenerate (only when an intentional output change lands)
// with:
//
//	go test -run TestGoldenSweeps -update .
func TestGoldenSweeps(t *testing.T) {
	got, err := goldenSweeps()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden_sweeps.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("sweep output diverged from golden file:\n--- want\n%s\n--- got\n%s", want, got)
	}
}
