package sched

import "dcasim/internal/simtime"

// The paper's three policies as Instances over the shared indexed-queue
// machinery. BLISS is the paper's baseline; FR-FCFS and FCFS back the
// "DCA is not limited to any scheduling algorithm" claim.

// NewBLISSInstance returns one channel's BLISS instance over apps
// applications, with the default threshold and clearing interval.
func NewBLISSInstance(apps int) Instance {
	// The BLISS state is embedded by value so a channel's instance is a
	// single allocation (plus the blacklist slice); the allocation pins
	// cover controller construction.
	return &blissInstance{b: *NewBLISS(apps), overflow: apps > 64}
}

// blissInstance exposes BLISS as a two-phase restriction: when anything
// is blacklisted, phase 0 admits only non-blacklisted applications and
// the controller's final unrestricted phase covers the remainder; when
// the blacklist is empty the pick collapses to a single phase. With at
// most 64 applications the restriction is the blacklist bitmask's
// complement; beyond that (overflow) it falls back to per-entry queries
// at the pick time captured by BeginPick. The periodic blacklist clear
// is applied on every consultation (BeginPick and each PhaseAllows), so
// the consultation schedule — part of the bit-identical contract — is
// exactly the linear-scan controller's.
type blissInstance struct {
	b        BLISS
	overflow bool         // more apps than the 64-bit mask tracks
	now      simtime.Time // pick time for per-entry queries (overflow)
	allowed  uint64       // ^blacklist mask captured by BeginPick
}

func (i *blissInstance) RowHitFirst() bool { return true }

func (i *blissInstance) BeginPick(now simtime.Time) int {
	i.now = now
	if i.overflow {
		if i.b.AnyBlacklisted(now) {
			return 2
		}
		return 1
	}
	m := i.b.BlacklistMask(now)
	i.allowed = ^m
	if m != 0 {
		return 2
	}
	return 1
}

func (i *blissInstance) PhaseMask(int) (uint64, bool) {
	if i.overflow {
		return 0, false
	}
	return i.allowed, true
}

func (i *blissInstance) PhaseAllows(_, app int) bool {
	return !i.b.Blacklisted(i.now, app)
}

func (i *blissInstance) OnServed(now simtime.Time, app int) { i.b.OnServed(now, app) }

// FRFCFS is BLISS without the blacklist: a single unrestricted phase
// resolved by the controller's row-hit / direction / age key.
type FRFCFS struct{}

func (FRFCFS) RowHitFirst() bool            { return true }
func (FRFCFS) BeginPick(simtime.Time) int   { return 1 }
func (FRFCFS) PhaseMask(int) (uint64, bool) { return ^uint64(0), true }
func (FRFCFS) PhaseAllows(int, int) bool    { return true }
func (FRFCFS) OnServed(simtime.Time, int)   {}

// FCFS is pure age order: RowHitFirst false short-circuits the
// controller to oldest-first scans and the phase machinery is unused.
type FCFS struct{}

func (FCFS) RowHitFirst() bool            { return false }
func (FCFS) BeginPick(simtime.Time) int   { return 1 }
func (FCFS) PhaseMask(int) (uint64, bool) { return ^uint64(0), true }
func (FCFS) PhaseAllows(int, int) bool    { return true }
func (FCFS) OnServed(simtime.Time, int)   {}
