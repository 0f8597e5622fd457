package core

// Self-test of the conformance checks: deliberately broken policies must
// each be caught by the invariant they violate. The first six break the
// Instance contract directly; the last one is contract-clean under the
// direct probes but becomes impure mid-run, and must be caught by the
// differential oracle instead.

import (
	"strings"
	"testing"

	"dcasim/internal/sched"
	"dcasim/internal/simtime"
)

// conformant is a neutral, restriction-free baseline the broken variants
// embed and selectively override.
type conformant struct{}

func (conformant) RowHitFirst() bool                  { return true }
func (conformant) BeginPick(simtime.Time) int         { return 1 }
func (conformant) PhaseMask(int) (uint64, bool)       { return ^uint64(0), true }
func (conformant) PhaseAllows(int, int) bool          { return true }
func (conformant) OnServed(now simtime.Time, app int) {}

type zeroPhases struct{ conformant }

func (zeroPhases) BeginPick(simtime.Time) int { return 0 }

type maskLiar struct{ conformant }

func (maskLiar) BeginPick(simtime.Time) int { return 2 }
func (maskLiar) PhaseMask(int) (uint64, bool) {
	return ^uint64(0) &^ (1 << 1), true // claims app 1 blocked...
}
func (maskLiar) PhaseAllows(int, int) bool { return true } // ...but allows it

// blacklistMask is BLISS with its phase mask inverted: the mask admits
// the blacklisted applications while PhaseAllows admits the rest. It
// looks conformant whenever nothing is blacklisted, which is why the
// contract probe serves a streak before it probes the phases.
type blacklistMask struct {
	conformant
	b   *sched.BLISS
	now simtime.Time
}

func (f *blacklistMask) BeginPick(now simtime.Time) int {
	f.now = now
	if f.b.AnyBlacklisted(now) {
		return 2
	}
	return 1
}
func (f *blacklistMask) PhaseMask(int) (uint64, bool)       { return f.b.BlacklistMask(f.now), true }
func (f *blacklistMask) PhaseAllows(_, app int) bool        { return !f.b.Blacklisted(f.now, app) }
func (f *blacklistMask) OnServed(now simtime.Time, app int) { f.b.OnServed(now, app) }

type highAppBlocker struct{ conformant }

func (highAppBlocker) BeginPick(simtime.Time) int  { return 2 }
func (highAppBlocker) PhaseAllows(_, app int) bool { return app < 64 }

type flappingRHF struct {
	conformant
	calls int
}

func (f *flappingRHF) RowHitFirst() bool { f.calls++; return f.calls%2 == 1 }

type unstablePhases struct {
	conformant
	calls int
}

func (u *unstablePhases) BeginPick(simtime.Time) int { u.calls++; return 1 + u.calls%2 }

// lateImpure is clean under every direct contract probe, then — after
// more services than the probes perform — its PhaseMask starts rotating
// a blocked app on every call. The indexed controller reads the mask
// once per phase while the reference oracle reads it per candidate, so
// the impurity makes the two schedules diverge.
type lateImpure struct {
	conformant
	served  int
	blocked int
}

func (l *lateImpure) BeginPick(simtime.Time) int { return 2 }
func (l *lateImpure) PhaseMask(int) (uint64, bool) {
	m := ^uint64(0) &^ (1 << uint(l.blocked))
	if l.served > 50 {
		l.blocked = (l.blocked + 1) % 4
	}
	return m, true
}
func (l *lateImpure) PhaseAllows(_, app int) bool    { return app != l.blocked }
func (l *lateImpure) OnServed(_ simtime.Time, _ int) { l.served++ }

func TestHarnessCatchesBrokenPolicies(t *testing.T) {
	cases := []struct {
		name    string
		newInst func(apps int) sched.Instance
		want    string // substring of the expected violation message
	}{
		{"zero-phases", func(int) sched.Instance { return zeroPhases{} }, "BeginPick"},
		{"mask-liar", func(int) sched.Instance { return maskLiar{} }, "disagrees with mask bit"},
		{"blacklist-mask", func(apps int) sched.Instance { return &blacklistMask{b: sched.NewBLISS(apps)} }, "disagrees with mask bit"},
		{"high-app-blocker", func(int) sched.Instance { return highAppBlocker{} }, "outside bits 0..63"},
		{"flapping-rhf", func(int) sched.Instance { return &flappingRHF{} }, "RowHitFirst"},
		{"unstable-phases", func(int) sched.Instance { return &unstablePhases{} }, "not idempotent"},
		// Any differential mismatch (pick sequence, counts, stats)
		// carries the run context; "seed" pins it to the oracle, not a
		// contract probe.
		{"late-impure", func(int) sched.Instance { return &lateImpure{} }, "seed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := checkConformance(tc.name, tc.newInst)
			if err == nil {
				t.Fatalf("conformance passed the deliberately broken policy %q", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("broken policy %q caught, but by the wrong invariant:\n got: %v\nwant substring %q", tc.name, err, tc.want)
			}
			t.Logf("caught: %v", err)
		})
	}
}
