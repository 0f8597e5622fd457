package core

// Self-test of the conformance differential: a reference whose key is
// wrong in one component must diverge from the controller. BLISS keys
// on every component, so each broken reference replays BLISS.

import "testing"

func TestHarnessCatchesBrokenPolicies(t *testing.T) {
	cases := []struct {
		name     string
		breakKey func(key *[4]int64)
	}{
		{"blacklist-ignored", func(k *[4]int64) { k[0] = 0 }},
		{"blacklist-inverted", func(k *[4]int64) { k[0] ^= 1 }},
		{"row-misses-first", func(k *[4]int64) { k[1] ^= 1 }},
		{"turnarounds-first", func(k *[4]int64) { k[2] ^= 1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := checkConformance(AlgBLISS, tc.breakKey)
			if err == nil {
				t.Fatalf("the controller matched a reference with its key broken (%s)", tc.name)
			}
			t.Logf("caught: %v", err)
		})
	}
}
