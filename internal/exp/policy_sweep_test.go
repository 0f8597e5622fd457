package exp

// The policy-comparison example sweep must stay loadable and resolvable:
// every point names a registered policy (including ATLAS, linked in via
// the policies aggregator) and every AlgParams override passes Validate.

import (
	"path/filepath"
	"testing"

	"dcasim/internal/config"

	_ "dcasim/internal/sched/policies"
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
	sawATLAS := false
	for _, row := range g.rows {
		cfg := row.cells[0].cfg
		if err := cfg.Validate(); err != nil {
			t.Errorf("point %v does not validate: %v", row.labels, err)
		}
		if cfg.Algorithm == "ATLAS" {
			sawATLAS = true
		}
	}
	if !sawATLAS {
		t.Error("spec exercises no beyond-paper policy; expected an ATLAS point")
	}
}

func TestPolicyAxesResolve(t *testing.T) {
	axes, err := PolicyAxes("atlas")
	if err != nil {
		t.Fatal(err)
	}
	if len(axes) == 0 {
		t.Fatal("ATLAS declares no sweep axes")
	}
	base := config.Test()
	base.Benchmarks = []string{"soplex", "mcf", "gcc", "libquantum"}
	base.Algorithm = "ATLAS"
	for _, ax := range axes {
		for _, pt := range ax.Values {
			cfg, err := base.Patch(pt.Set)
			if err != nil {
				t.Fatalf("axis %s point %s: %v", ax.Name, pt.Label, err)
			}
			if err := cfg.Validate(); err != nil {
				t.Errorf("axis %s point %s does not validate: %v", ax.Name, pt.Label, err)
			}
		}
	}
	if _, err := PolicyAxes("bananas"); err == nil {
		t.Error("unknown policy accepted")
	}
}
