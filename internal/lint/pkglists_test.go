package lint_test

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"dcasim/internal/lint"
)

// notListed are the top-level internal packages nodeterminism leaves
// alone: the filesystem seam under the result cache, which performs
// real I/O, and the analyzers themselves.
var notListed = []string{"internal/cachefs", "internal/lint"}

// TestPackageListsMatchTree keeps nodeterminism's package lists in step
// with the tree: every listed or exempt package is a directory, and
// every top-level internal package is listed or exempt. A stale entry
// matches nothing and fails nothing, and an unlisted new package
// escapes the determinism rules, so either fails here.
func TestPackageListsMatchTree(t *testing.T) {
	root := filepath.Join("..", "..")
	var known []string
	for _, list := range [][]string{lint.DeterministicPkgs, lint.OrderSensitivePkgs, notListed} {
		for _, p := range list {
			if fi, err := os.Stat(filepath.Join(root, filepath.FromSlash(p))); err != nil || !fi.IsDir() {
				t.Errorf("%s is named in a package list but is not a directory of the tree", p)
			}
			known = append(known, p)
		}
	}
	entries, err := os.ReadDir(filepath.Join(root, "internal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if p := "internal/" + e.Name(); e.IsDir() && !slices.Contains(known, p) {
			t.Errorf("%s is in neither DeterministicPkgs, OrderSensitivePkgs nor the exempt list", p)
		}
	}
}
