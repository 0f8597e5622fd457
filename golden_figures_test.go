package dcasim

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dcasim/internal/exp"
)

// goldenFigures renders every experiment driver — Tables I–II, Figs. 8–19,
// and the three extension studies — at the test scale over two mixes. The
// file pins the drivers' numeric output bit-for-bit, so a refactor of the
// experiment layer (e.g. replacing the hand-rolled enumeration with
// declarative specs) must reproduce the exact same tables.
func goldenFigures() (string, error) {
	mixes := TableIMixes()[:2]
	r := NewRunner(TestConfig(), mixes, 0)
	var b strings.Builder
	fmt.Fprintf(&b, "== tableI ==\n%s\n", exp.TableI(mixes))
	fmt.Fprintf(&b, "== tableII ==\n%s\n", r.TableII())
	for _, name := range exp.FigureNames() {
		tbl, err := r.Figure(name)
		if err != nil {
			return "", fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintf(&b, "== %s ==\n%s\n", name, tbl)
	}
	return b.String(), nil
}

// TestGoldenFigures pins every figure and table driver bit-for-bit.
// Regenerate (only when an intentional model change lands) with:
//
//	go test -run TestGoldenFigures -update .
func TestGoldenFigures(t *testing.T) {
	got, err := goldenFigures()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden_figures.txt")
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
		t.Errorf("figure drivers diverged from golden file:\n--- want\n%s\n--- got\n%s", want, got)
	}
}
