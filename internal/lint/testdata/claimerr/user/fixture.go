// Fixture for the claimerr analyzer: errors returned by rescache
// operations must never be dropped — not in expression position, not
// via the blank identifier, not behind defer.
package user

import (
	"fmt"
	"os"

	"dcasim/internal/rescache"
	"dcasim/internal/sim"
)

func ignored(c *rescache.Cache, res sim.Result) {
	c.Put("k", res) // want `rescache.Put return value ignored`
}

func blank(c *rescache.Cache, res sim.Result) {
	_ = c.Put("k", res) // want `rescache.Put error discarded into _`
}

func blankMulti(path string) *rescache.Cache {
	c, _ := rescache.Open(path) // want `rescache.Open error discarded into _`
	return c
}

func deferred(c *rescache.Cache, res sim.Result) {
	defer c.Put("k", res) // want `rescache.Put deferred with its error ignored`
}

// handled is the required shape.
func handled(c *rescache.Cache, res sim.Result) error {
	if err := c.Put("k", res); err != nil {
		return fmt.Errorf("put: %w", err)
	}
	return nil
}

// errorless methods of guarded packages are unconstrained.
func errorless(c *rescache.Cache) string {
	return c.Dir()
}

// otherPkg: claimerr only guards rescache (errcheck covers the rest of
// the tree with its own policy).
func otherPkg(f *os.File) {
	f.Close()
}
