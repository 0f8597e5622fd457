package core

// The design and algorithm enums are closed: parsing accepts exactly
// the paper's names (any case, plus the "frfcfs" alias), and a config
// naming anything else is rejected with a descriptive error, not
// simulated under a silently-substituted default.

import (
	"strings"
	"testing"
)

func TestParseAlgorithmUnknown(t *testing.T) {
	for _, in := range []string{"bananas", "", "ATLAS", "atlas"} {
		if _, err := ParseAlgorithm(in); err == nil || !strings.Contains(err.Error(), "unknown scheduling algorithm") {
			t.Errorf("ParseAlgorithm(%q) = %v, want an unknown-algorithm error", in, err)
		}
	}
	// The error lists the accepted names so the fix is discoverable.
	if _, err := ParseAlgorithm("bananas"); !strings.Contains(err.Error(), "BLISS") {
		t.Errorf("error does not list the accepted names: %v", err)
	}
	for in, want := range map[string]Algorithm{
		"bliss": AlgBLISS, "BLISS": AlgBLISS,
		"frfcfs": AlgFRFCFS, "FR-FCFS": AlgFRFCFS, "Fr-FcFs": AlgFRFCFS, "FRFCFS": AlgFRFCFS,
		"fcfs": AlgFCFS,
	} {
		got, err := ParseAlgorithm(in)
		if err != nil || got != want {
			t.Errorf("ParseAlgorithm(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
}

func TestValidateRejectsUnknownNames(t *testing.T) {
	unknownAlg := DefaultConfig(DCA)
	unknownAlg.Algorithm = "bananas"
	if err := unknownAlg.Validate(); err == nil || !strings.Contains(err.Error(), "unknown scheduling algorithm") {
		t.Errorf("unknown Algorithm passed Validate: %v", err)
	}
	for _, d := range []Design{-1, DCA + 1, 99} {
		unknownDesign := DefaultConfig(DCA)
		unknownDesign.Design = d
		if err := unknownDesign.Validate(); err == nil || !strings.Contains(err.Error(), "unknown design") {
			t.Errorf("Design(%d) passed Validate: %v", int(d), err)
		}
		// The defaults for an unknown design fail on the design, not on
		// the queue capacities it has none of.
		if err := DefaultConfig(d).Validate(); err == nil || !strings.Contains(err.Error(), "unknown design") {
			t.Errorf("DefaultConfig(%d).Validate() = %v, want an unknown-design error", int(d), err)
		}
	}
}

func TestAlgorithmCanonical(t *testing.T) {
	if got := Algorithm("").Canonical(); got != AlgBLISS {
		t.Errorf("zero value canonicalises to %q, want BLISS", got)
	}
	if got := Algorithm("fr-fcfs").Canonical(); got != AlgFRFCFS {
		t.Errorf("alias canonicalises to %q, want FR-FCFS", got)
	}
	if got := Algorithm("bananas").Canonical(); got != "bananas" {
		t.Errorf("unknown name rewritten to %q; must pass through for the caller to reject", got)
	}
}
