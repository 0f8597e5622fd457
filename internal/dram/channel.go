package dram

import (
	"fmt"

	"dcasim/internal/addrmap"
	"dcasim/internal/simtime"
)

// RowState classifies the row-buffer situation an access would meet in
// its bank, the information FR-FCFS and the OFS flushing check consume.
type RowState uint8

const (
	RowHit      RowState = iota // bank open on the access's row
	RowClosed                   // bank precharged, no row open
	RowConflict                 // bank open on a different row
)

// String implements fmt.Stringer.
func (s RowState) String() string {
	switch s {
	case RowHit:
		return "hit"
	case RowClosed:
		return "closed"
	case RowConflict:
		return "conflict"
	}
	return "?"
}

// Dir is the bus data direction.
type Dir uint8

const (
	DirNone Dir = iota
	DirRead
	DirWrite
)

type bank struct {
	openRow int64        // -1 when precharged
	preOK   simtime.Time // earliest next precharge (tRAS, tWR, tRTP)
	actOK   simtime.Time // earliest next activate
}

// Channel models one stacked-DRAM channel: its banks and its shared data
// bus. All methods are driven by a single controller goroutine; the type
// is not safe for concurrent use (simulations are single-threaded).
type Channel struct {
	timing Timing
	geom   addrmap.Geometry
	banks  []bank

	busFree      simtime.Time // data bus free (end of last burst)
	lastDir      Dir
	lastReadEnd  simtime.Time
	lastWriteEnd simtime.Time

	// rowListener, when set, is invoked with the bank and its new open
	// row on every open-row change (activate). It lets a scheduler
	// maintain incremental row-hit state instead of re-Peeking every
	// queued entry on every scheduling slot.
	rowListener func(gb int, row int64)

	stats Stats
}

// NewChannel builds a channel with all banks precharged.
func NewChannel(t Timing, g addrmap.Geometry) *Channel {
	n := g.Ranks * g.Banks
	c := &Channel{timing: t, geom: g, banks: make([]bank, n)}
	for i := range c.banks {
		c.banks[i].openRow = -1
	}
	return c
}

// Banks returns the number of banks the channel manages.
func (c *Channel) Banks() int { return len(c.banks) }

// Timing returns the channel's timing parameters.
func (c *Channel) Timing() Timing { return c.timing }

// Peek reports the row-buffer state the given location would encounter,
// without modifying anything.
func (c *Channel) Peek(l addrmap.Loc) RowState {
	return c.PeekBank(l.GlobalBank(c.geom), l.Row)
}

// PeekBank is the fast path of Peek for callers that already decoded the
// location's dense global bank index: no address math is repeated.
func (c *Channel) PeekBank(gb int, row int64) RowState {
	switch c.banks[gb].openRow {
	case row:
		return RowHit
	case -1:
		return RowClosed
	default:
		return RowConflict
	}
}

// SetRowListener registers fn to be called whenever an activate changes a
// bank's open row, with the bank's dense index and the newly opened row.
// At most one listener is supported (one controller owns each channel).
func (c *Channel) SetRowListener(fn func(gb int, row int64)) { c.rowListener = fn }

// GlobalBank returns the dense (rank, bank) index of l under the
// channel's geometry.
func (c *Channel) GlobalBank(l addrmap.Loc) int { return l.GlobalBank(c.geom) }

// LastDir returns the direction of the most recent data burst, letting
// the scheduler prefer same-direction accesses and amortise turnarounds.
func (c *Channel) LastDir() Dir { return c.lastDir }

// BusFreeAt returns the time the data bus finishes its current burst.
func (c *Channel) BusFreeAt() simtime.Time { return c.busFree }

// Issue services one access starting no earlier than now and returns its
// data completion time. The caller (the controller) is responsible for
// issuing at most one access at a time per channel; Issue panics if called
// while a previous burst is still in flight, since that indicates a
// controller bug rather than a recoverable condition.
func (c *Channel) Issue(a *Access, now simtime.Time) simtime.Time {
	if now < c.busFree {
		panic(fmt.Sprintf("dram: Issue at %v before bus free %v", now, c.busFree))
	}
	t := c.timing
	gb := a.Loc.GlobalBank(c.geom)
	b := &c.banks[gb]

	state := c.PeekBank(gb, a.Loc.Row)
	cmd := now

	// Row preparation on the critical path.
	switch state {
	case RowHit:
		// Row already open: no preparation, straight to the column access.
	case RowConflict:
		pre := simtime.Max(cmd, b.preOK)
		cmd = pre + t.TRP
		fallthrough
	case RowClosed:
		act := simtime.Max(cmd, b.actOK)
		cmd = act + t.TRCD
		b.openRow = a.Loc.Row
		b.preOK = act + t.TRAS
		// tRC-style back-to-back activate spacing approximated by
		// tRAS + tRP from this activate.
		b.actOK = act + t.TRAS + t.TRP
		if c.rowListener != nil {
			c.rowListener(gb, a.Loc.Row)
		}
	}

	// CAS issue, honouring bus-turnaround constraints.
	write := a.Kind.IsWrite()
	if write {
		if c.lastDir == DirRead {
			cmd = simtime.Max(cmd, c.lastReadEnd+t.TRTW)
		}
	} else {
		if c.lastDir == DirWrite {
			cmd = simtime.Max(cmd, c.lastWriteEnd+t.TWTR)
		}
	}

	// Data burst on the shared bus.
	burst := t.BurstTime(a.Bytes)
	dataStart := cmd + t.TCAS
	if dataStart < c.busFree {
		shift := c.busFree - dataStart
		cmd += shift
		dataStart += shift
	}
	end := dataStart + burst

	// Post-access bank constraints.
	if write {
		b.preOK = simtime.Max(b.preOK, end+t.TWR)
		c.lastWriteEnd = end
	} else {
		b.preOK = simtime.Max(b.preOK, cmd+t.TRTP)
		c.lastReadEnd = end
	}
	c.busFree = end

	dir := DirRead
	if write {
		dir = DirWrite
	}
	c.stats.record(a, state, dir, c.lastDir, now, end)
	c.lastDir = dir
	return end
}

// Stats returns a snapshot of the channel's counters.
func (c *Channel) Stats() Stats { return c.stats }

// ResetStats clears the counters (used after warm-up).
func (c *Channel) ResetStats() { c.stats = Stats{} }
