// Package dcache models the die-stacked, tags-in-DRAM cache: its two
// organizations (set-associative per Loh & Hill, direct-mapped per
// Qureshi & Loh's Alloy cache), the translation of cache requests into
// DRAM access chains (paper Fig. 2), the MAP-I miss predictor hookup, and
// the optional ATCache-style SRAM tag cache.
//
// The package owns the functional tag state (what is cached, dirtiness,
// replacement order) and drives the per-channel controllers of
// internal/core, which own all timing.
package dcache

import (
	"encoding/json"
	"fmt"
	"math/bits"

	"dcasim/internal/addrmap"
)

// Org selects the DRAM cache organization.
type Org int

const (
	// SetAssoc is the Loh–Hill-style organization: each 4 KB row holds
	// 4 tag blocks followed by 60 data blocks, forming 4 sets of 15 ways
	// (the paper's 240 MB-data-in-256 MB layout). A read needs a tag
	// read, then a data read, then a tag write.
	SetAssoc Org = iota
	// DirectMapped is the Alloy-cache-style organization: each 4 KB row
	// holds 56 tag-and-data (TAD) units of 72 B; tag and data stream out
	// in a single slightly longer burst.
	DirectMapped
)

// String implements fmt.Stringer.
func (o Org) String() string {
	if o == DirectMapped {
		return "direct-mapped"
	}
	return "set-assoc"
}

// ParseOrg converts a name to an Org. Both the short CLI spellings
// ("sa", "dm") and the canonical String forms are accepted.
func ParseOrg(s string) (Org, error) {
	switch s {
	case "sa", "SA", "set-assoc", "setassoc":
		return SetAssoc, nil
	case "dm", "DM", "direct-mapped", "directmapped":
		return DirectMapped, nil
	}
	return SetAssoc, fmt.Errorf("dcache: unknown organization %q (want sa or dm)", s)
}

// MarshalJSON encodes the organization as its canonical name.
func (o Org) MarshalJSON() ([]byte, error) {
	switch o {
	case SetAssoc, DirectMapped:
		return []byte(`"` + o.String() + `"`), nil
	}
	return nil, fmt.Errorf("dcache: cannot marshal unknown organization %d", int(o))
}

// UnmarshalJSON accepts the same names ParseOrg does.
func (o *Org) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("dcache: organization must be a JSON string: %s", b)
	}
	v, err := ParseOrg(s)
	if err != nil {
		return err
	}
	*o = v
	return nil
}

// Layout constants shared by the organizations.
const (
	BlockBytes = 64
	TADBytes   = 72 // 64 B data + 8 B tag in the direct-mapped design
	RowBytes   = 4096

	saSetsPerRow = 4
	saWays       = 15
	saTagCols    = saSetsPerRow // one tag block per set, cols 0..3

	dmTADsPerRow = 56 // 56 × 72 B = 4032 B of a 4 KB row
)

// Geometry captures the derived shape of a DRAM cache instance.
type Geometry struct {
	Org       Org
	SizeBytes int64 // total stacked-DRAM capacity (tags + data)
	RowBytes  int
	Rows      int64 // rows across all channels/ranks/banks
	Sets      int64 // cache sets (DM: one block per set)
	Ways      int
	DRAM      addrmap.Geometry

	// Power-of-two set counts (the set-associative organization always;
	// direct-mapped never, 56 TADs per row) find a set with a mask
	// instead of a division. A tag, (block - set) / Sets, is an exact
	// quotient and never takes one: it shifts out Sets' factors of two
	// (setShift) and multiplies by the inverse of the odd part modulo
	// 2^64 (oddInverse, 1 for a power of two).
	setsPow2   bool
	setShift   uint
	oddInverse uint64
}

// NewGeometry derives a geometry from the stacked-DRAM shape. The layout
// needs RowBytes rows of BlockBytes blocks; sizeBytes must be a positive
// whole number of rows.
func NewGeometry(org Org, sizeBytes int64, dram addrmap.Geometry) (Geometry, error) {
	if err := dram.Validate(); err != nil {
		return Geometry{}, err
	}
	if dram.BlockSize != BlockBytes {
		return Geometry{}, fmt.Errorf("dcache: DRAM block size %d, want %d", dram.BlockSize, BlockBytes)
	}
	if dram.RowBytes != RowBytes {
		return Geometry{}, fmt.Errorf("dcache: RowBytes %d, want %d: the layout packs %d sets or %d TADs into a row", dram.RowBytes, RowBytes, saSetsPerRow, dmTADsPerRow)
	}
	if sizeBytes <= 0 || sizeBytes%int64(dram.RowBytes) != 0 {
		return Geometry{}, fmt.Errorf("dcache: size %d is not a positive multiple of row size %d", sizeBytes, dram.RowBytes)
	}
	rows := sizeBytes / int64(dram.RowBytes)
	g := Geometry{Org: org, SizeBytes: sizeBytes, RowBytes: dram.RowBytes, Rows: rows, DRAM: dram}
	switch org {
	case SetAssoc:
		g.Sets = rows * saSetsPerRow
		g.Ways = saWays
	case DirectMapped:
		g.Sets = rows * dmTADsPerRow
		g.Ways = 1
	default:
		return Geometry{}, fmt.Errorf("dcache: unknown org %d", int(org))
	}
	g.setsPow2 = g.Sets&(g.Sets-1) == 0
	g.setShift = uint(bits.TrailingZeros64(uint64(g.Sets)))
	// Newton's iteration doubles the correct low bits of an inverse of
	// the odd part d, and d is its own inverse modulo 8: 3 → 96 bits.
	d := uint64(g.Sets) >> g.setShift
	g.oddInverse = d
	for i := 0; i < 5; i++ {
		g.oddInverse *= 2 - d*g.oddInverse
	}
	return g, nil
}

// DataCapacity returns the cacheable data bytes (240 MB for the paper's
// 256 MB set-associative instance).
func (g Geometry) DataCapacity() int64 { return g.Sets * int64(g.Ways) * BlockBytes }

// SetOf maps a physical block address (block number) to its set. It is
// the one division a direct-mapped lookup takes.
func (g *Geometry) SetOf(blockAddr int64) int64 {
	if blockAddr < 0 {
		negativeBlock(blockAddr)
	}
	if g.setsPow2 {
		return blockAddr & (g.Sets - 1)
	}
	return blockAddr % g.Sets
}

// negativeBlock panics; it is kept out of line so SetOf inlines.
//
//go:noinline
func negativeBlock(blockAddr int64) {
	panic(fmt.Sprintf("dcache: negative block address %d", blockAddr))
}

// TagOf returns the tag stored for blockAddr.
func (g *Geometry) TagOf(blockAddr int64) int64 { return g.tagIn(blockAddr, g.SetOf(blockAddr)) }

// tagIn returns the tag of blockAddr, which maps to set, without a
// division.
func (g *Geometry) tagIn(blockAddr, set int64) int64 {
	return int64(uint64(blockAddr-set) >> g.setShift * g.oddInverse)
}

// rowOf returns the DRAM row (linear row index) holding a set.
func (g *Geometry) rowOf(set int64) int64 {
	if g.Org == SetAssoc {
		return set / saSetsPerRow
	}
	return set / dmTADsPerRow
}

// TagLoc returns the DRAM location of the tag block for a set. For the
// direct-mapped design this is the TAD slot itself (the probe reads the
// whole TAD).
func (g *Geometry) TagLoc(set int64, m *addrmap.Mapper) addrmap.Loc {
	row := g.rowOf(set)
	blocksPerRow := int64(g.DRAM.BlocksPerRow())
	var col int64
	if g.Org == SetAssoc {
		col = set % saSetsPerRow // tag blocks live in cols 0..3
	} else {
		col = set % dmTADsPerRow
	}
	return m.Map(row*blocksPerRow + col)
}

// DataLoc returns the DRAM location of a data block (set, way). Only
// meaningful for the set-associative organization; the direct-mapped
// design reads data together with the tag.
func (g *Geometry) DataLoc(set int64, way int, m *addrmap.Mapper) addrmap.Loc {
	if g.Org != SetAssoc {
		return g.TagLoc(set, m)
	}
	row := g.rowOf(set)
	local := set % saSetsPerRow
	col := int64(saTagCols) + local*int64(saWays) + int64(way)
	return m.Map(row*int64(g.DRAM.BlocksPerRow()) + col)
}

// TagBlockIndex returns a dense identifier of the tag block holding a
// set's tags, the unit cached by the SRAM tag cache.
func (g *Geometry) TagBlockIndex(set int64) int64 {
	if g.Org == SetAssoc {
		return set // one tag block per set
	}
	return set / dmTADsPerRow
}

// TagRowSiblings returns the tag-block indices sharing the DRAM row of
// set, used by the tag cache's spatial prefetch.
func (g *Geometry) TagRowSiblings(set int64) []int64 {
	if g.Org != SetAssoc {
		return nil
	}
	base := set - set%saSetsPerRow
	sib := make([]int64, saSetsPerRow)
	for i := range sib {
		sib[i] = base + int64(i)
	}
	return sib
}
