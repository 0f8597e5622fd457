package exp

// The policy-comparison example sweep must stay loadable and resolvable:
// every point validates, and together the points select each of the
// paper's three policies.

import (
	"path/filepath"
	"testing"

	"dcasim/internal/core"
)

const policyComparisonSpec = "../../examples/sweep/policy_comparison.json"

func TestPolicyComparisonSpecResolves(t *testing.T) {
	spec, err := LoadSweep(filepath.FromSlash(policyComparisonSpec))
	if err != nil {
		t.Fatal(err)
	}
	_, g, err := spec.grid()
	if err != nil {
		t.Fatal(err)
	}
	saw := map[core.Algorithm]bool{}
	for _, row := range g.rows {
		cfg := row.cells[0].cfg
		if err := cfg.Validate(); err != nil {
			t.Errorf("point %v does not validate: %v", row.labels, err)
		}
		saw[cfg.Algorithm.Canonical()] = true
	}
	for _, alg := range SchedulerAlgorithms {
		if !saw[alg] {
			t.Errorf("spec has no %s point", alg)
		}
	}
}
