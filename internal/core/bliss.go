package core

import "dcasim/internal/simtime"

// BLISS's parameters from the original proposal (Subramanian et al.,
// ICCD 2014), scaled to the simulator's 4 GHz clock (10 000 cycles =
// 2.5 µs).
const (
	blissThreshold     = 4
	blissClearInterval = simtime.Time(2500) * simtime.Nanosecond
)

// bliss is one channel's BLISS blacklist: an application served
// blissThreshold times in a row is blacklisted, and a pick serves it
// after every other application until the periodic clear empties the
// list. The zero value is ready: its first consultation applies the
// clear, which starts the first interval.
type bliss struct {
	black     uint64 // bit a set while application a is blacklisted
	lastApp   int    // application of the current streak, -1 for none
	streak    int
	nextClear simtime.Time
}

// blacklist returns the blacklist word, applying a pending periodic
// clear first. The clear moves the next one, so callers consult it
// exactly where the reference scan does.
func (b *bliss) blacklist(now simtime.Time) uint64 {
	if now >= b.nextClear {
		*b = bliss{lastApp: -1, nextClear: now + blissClearInterval}
	}
	return b.black
}

// onServed records that a request of app was just issued, extending or
// restarting the service streak and blacklisting app once the streak
// reaches blissThreshold.
func (b *bliss) onServed(now simtime.Time, app int) {
	b.blacklist(now)
	if app == b.lastApp {
		b.streak++
	} else {
		b.lastApp, b.streak = app, 1
	}
	if b.streak >= blissThreshold {
		b.black |= 1 << uint(app)
	}
}
