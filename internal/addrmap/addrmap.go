// Package addrmap maps linear block indices of the die-stacked DRAM cache
// array onto DRAM coordinates (channel, rank, bank, row, column).
//
// The paper's organization (Table II) is RoBaRaChCo with open-page rows:
// reading the field list from most- to least-significant address bits
// gives Row | Bank | Rank | Channel | Column. Consecutive blocks therefore
// fill a row before moving to the next channel, which maximises row-buffer
// locality for spatially local streams.
//
// The package also implements the permutation-based XOR remapping of
// Zhang et al. (MICRO 2000) used in the paper's "with remapping"
// experiments: the bank index is XORed with the low bits of the row index,
// scattering same-bank conflicting rows across banks.
package addrmap

import (
	"fmt"
	"math/bits"
)

// Geometry describes a stacked-DRAM array.
type Geometry struct {
	Channels  int // independent channels, each with its own bus
	Ranks     int // ranks per channel
	Banks     int // banks per rank
	RowBytes  int // row-buffer size in bytes
	BlockSize int // access granularity in bytes (one cache block)
}

// BlocksPerRow returns the number of blocks held by one row buffer.
func (g Geometry) BlocksPerRow() int { return g.RowBytes / g.BlockSize }

// Validate reports a descriptive error for an unusable geometry.
func (g Geometry) Validate() error {
	switch {
	case g.Channels <= 0 || g.Ranks <= 0 || g.Banks <= 0:
		return fmt.Errorf("addrmap: non-positive channel/rank/bank count %+v", g)
	case g.RowBytes <= 0 || g.BlockSize <= 0:
		return fmt.Errorf("addrmap: non-positive row or block size %+v", g)
	case g.RowBytes%g.BlockSize != 0:
		return fmt.Errorf("addrmap: row size %d not a multiple of block size %d", g.RowBytes, g.BlockSize)
	case g.Channels&(g.Channels-1) != 0 || g.Ranks&(g.Ranks-1) != 0 || g.Banks&(g.Banks-1) != 0:
		return fmt.Errorf("addrmap: channels/ranks/banks must be powers of two %+v", g)
	case g.BlocksPerRow()&(g.BlocksPerRow()-1) != 0:
		return fmt.Errorf("addrmap: a row of %d blocks is not a power of two %+v", g.BlocksPerRow(), g)
	}
	return nil
}

// Loc is a fully decoded DRAM coordinate. The small fields are int32 to
// keep small the queued accesses (dram.Access) that embed it.
type Loc struct {
	Channel int32
	Rank    int32
	Bank    int32 // bank index within the rank
	Col     int32 // block index within the row
	Row     int64
}

// GlobalBank returns a dense index identifying (rank, bank) within a
// channel, used by per-channel bank state arrays.
func (l Loc) GlobalBank(g Geometry) int { return int(l.Rank)*g.Banks + int(l.Bank) }

// Mapper decodes linear block indices under a Geometry, optionally with
// XOR permutation remapping of the bank index. Every field of the
// geometry is a power of two, so the decode is shifts and masks, derived
// once by NewMapper.
type Mapper struct {
	geom     Geometry
	xorRemap bool

	// Each field of Loc but the row is (idx >> shift) & mask, the
	// column's shift being 0; the row is idx >> rowShift.
	chShift, rankShift, bankShift, rowShift uint
	colMask, chMask, rankMask, bankMask     uint64
}

// NewMapper returns the mapper of g, which must validate.
func NewMapper(g Geometry, xorRemap bool) *Mapper {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	width := func(n int) uint { return uint(bits.TrailingZeros64(uint64(n))) }
	m := &Mapper{geom: g, xorRemap: xorRemap}
	m.chShift = width(g.BlocksPerRow())
	m.rankShift = m.chShift + width(g.Channels)
	m.bankShift = m.rankShift + width(g.Ranks)
	m.rowShift = m.bankShift + width(g.Banks)
	m.colMask = uint64(g.BlocksPerRow() - 1)
	m.chMask = uint64(g.Channels - 1)
	m.rankMask = uint64(g.Ranks - 1)
	m.bankMask = uint64(g.Banks - 1)
	return m
}

// Map decodes block index idx (block number within the DRAM array) into a
// Loc following RoBaRaChCo ordering: column varies fastest, then channel,
// rank, bank, and finally row.
func (m *Mapper) Map(idx int64) Loc {
	if idx < 0 {
		panic(fmt.Sprintf("addrmap: negative block index %d", idx))
	}
	u := uint64(idx) // non-negative, so unsigned shifts are exact
	row := u >> m.rowShift
	bank := u >> m.bankShift & m.bankMask
	if m.xorRemap {
		// Permutation-based interleaving: XOR the bank index with the
		// low log2(banks) bits of the row index. Rows that would
		// conflict in one bank now land in different banks while the
		// mapping stays a bijection (XOR with a row-determined constant
		// permutes banks within each row).
		bank ^= row & m.bankMask
	}
	return Loc{
		Channel: int32(u >> m.chShift & m.chMask),
		Rank:    int32(u >> m.rankShift & m.rankMask),
		Bank:    int32(bank),
		Col:     int32(u & m.colMask),
		Row:     int64(row),
	}
}

// RowID returns a dense identifier for the (channel, rank, bank, row)
// tuple of l, useful for grouping blocks that share a row buffer.
func (m *Mapper) RowID(l Loc) int64 {
	g := m.geom
	id := l.Row
	id = id*int64(g.Banks) + int64(l.Bank)
	id = id*int64(g.Ranks) + int64(l.Rank)
	id = id*int64(g.Channels) + int64(l.Channel)
	return id
}
