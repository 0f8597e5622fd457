// Package sched holds the scheduling policies the DRAM-cache controllers
// pick through: the Instance interface and the paper's three policies,
// BLISS, FR-FCFS and FCFS. internal/core builds one instance per channel
// from the configured core.Algorithm.
//
// The controller keeps the shared per-(bank, lane) indexed-queue
// machinery and asks the instance only for *phase restrictions* — which
// applications may be served in each scan phase — so every policy shares
// the O(1)-amortised pick paths. See Instance for the exact contract;
// the conformance tests in internal/core check it.
//
// The BLISS blacklisting scheduler (Subramanian et al.) is the paper's
// baseline: an application served Threshold times in a row is
// blacklisted and loses priority until the periodic clear. Within a
// priority class the controllers break ties row-hit-first then
// oldest-first (FR-FCFS).
package sched

import "dcasim/internal/simtime"

// Default BLISS parameters from the original proposal, scaled to the
// simulator's 4 GHz clock (10 000 cycles = 2.5 µs).
const (
	DefaultThreshold     = 4
	DefaultClearInterval = simtime.Time(2500) * simtime.Nanosecond
)

// BLISS tracks per-application blacklist state for one channel.
type BLISS struct {
	Threshold     int
	ClearInterval simtime.Time

	blacklisted []bool
	nBlack      int    // count of currently blacklisted apps
	mask        uint64 // bit per blacklisted app (apps 0..63)
	lastApp     int
	streak      int
	nextClear   simtime.Time
}

// NewBLISS returns a scheduler tracking apps applications with the default
// parameters.
func NewBLISS(apps int) *BLISS {
	return &BLISS{
		Threshold:     DefaultThreshold,
		ClearInterval: DefaultClearInterval,
		blacklisted:   make([]bool, apps),
		lastApp:       -1,
	}
}

// maybeClear resets the blacklist when the clearing interval elapsed.
func (b *BLISS) maybeClear(now simtime.Time) {
	if now < b.nextClear {
		return
	}
	for i := range b.blacklisted {
		b.blacklisted[i] = false
	}
	b.nBlack = 0
	b.mask = 0
	b.streak = 0
	b.lastApp = -1
	b.nextClear = now + b.ClearInterval
}

// AnyBlacklisted reports whether at least one application is currently
// deprioritised, applying a pending periodic clear first. Schedulers use
// this O(1) check to skip per-entry blacklist tests entirely during the
// (common) intervals when the blacklist is empty.
func (b *BLISS) AnyBlacklisted(now simtime.Time) bool {
	b.maybeClear(now)
	return b.nBlack > 0
}

// BlacklistMask returns the blacklist as a bitmask (bit app set when app
// is deprioritised), applying a pending periodic clear first. Only the
// first 64 applications are representable; callers tracking more must
// fall back to per-app Blacklisted queries.
func (b *BLISS) BlacklistMask(now simtime.Time) uint64 {
	b.maybeClear(now)
	return b.mask
}

// Blacklisted reports whether app is currently deprioritised.
func (b *BLISS) Blacklisted(now simtime.Time, app int) bool {
	b.maybeClear(now)
	if app < 0 || app >= len(b.blacklisted) {
		return false
	}
	return b.blacklisted[app]
}

// OnServed records that a request from app was just serviced and updates
// the consecutive-service streak and blacklist.
func (b *BLISS) OnServed(now simtime.Time, app int) {
	b.maybeClear(now)
	if app < 0 || app >= len(b.blacklisted) {
		return
	}
	if app == b.lastApp {
		b.streak++
	} else {
		b.lastApp = app
		b.streak = 1
	}
	if b.streak >= b.Threshold {
		if !b.blacklisted[app] {
			b.nBlack++
			if app < 64 {
				b.mask |= 1 << uint(app)
			}
		}
		b.blacklisted[app] = true
	}
}
