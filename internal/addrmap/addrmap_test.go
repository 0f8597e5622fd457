package addrmap

import (
	"testing"
	"testing/quick"
)

func paperGeom() Geometry {
	return Geometry{Channels: 4, Ranks: 1, Banks: 16, RowBytes: 4096, BlockSize: 64}
}

func TestValidate(t *testing.T) {
	if err := paperGeom().Validate(); err != nil {
		t.Fatalf("paper geometry invalid: %v", err)
	}
	bad := []Geometry{
		{Channels: 0, Ranks: 1, Banks: 16, RowBytes: 4096, BlockSize: 64},
		{Channels: 3, Ranks: 1, Banks: 16, RowBytes: 4096, BlockSize: 64}, // not a power of two
		{Channels: 4, Ranks: 1, Banks: 16, RowBytes: 4096, BlockSize: 60},
		{Channels: 4, Ranks: 1, Banks: 16, RowBytes: 0, BlockSize: 64},
		{Channels: 4, Ranks: 1, Banks: 16, RowBytes: 63 * 64, BlockSize: 64}, // 63-block row
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("bad geometry %d validated: %+v", i, g)
		}
	}
}

func TestRoBaRaChCoOrdering(t *testing.T) {
	g := paperGeom()
	m := NewMapper(g, false)
	bpr := int64(g.BlocksPerRow())

	// Column varies fastest: consecutive indices within a row share
	// everything but the column.
	a, b := m.Map(0), m.Map(1)
	if a.Col+1 != b.Col || a.Channel != b.Channel || a.Bank != b.Bank || a.Row != b.Row {
		t.Fatalf("consecutive blocks not column-adjacent: %+v then %+v", a, b)
	}
	// Then channel.
	c := m.Map(bpr)
	if c.Channel != 1 || c.Col != 0 || c.Row != 0 || c.Bank != 0 {
		t.Fatalf("block at one row stride should advance channel: %+v", c)
	}
	// Then bank (ranks=1).
	d := m.Map(bpr * int64(g.Channels))
	if d.Bank != 1 || d.Channel != 0 || d.Row != 0 {
		t.Fatalf("expected bank advance: %+v", d)
	}
	// Then row.
	e := m.Map(bpr * int64(g.Channels) * int64(g.Banks))
	if e.Row != 1 || e.Bank != 0 || e.Channel != 0 {
		t.Fatalf("expected row advance: %+v", e)
	}
}

func TestMapInjective(t *testing.T) {
	// Property: Map is injective over a window, with and without
	// remapping (the XOR permutation must stay a bijection).
	for _, remap := range []bool{false, true} {
		m := NewMapper(paperGeom(), remap)
		seen := make(map[Loc]int64)
		for i := int64(0); i < 1<<16; i++ {
			l := m.Map(i)
			if prev, ok := seen[l]; ok {
				t.Fatalf("remap=%v: blocks %d and %d collide at %+v", remap, prev, i, l)
			}
			seen[l] = i
		}
	}
}

func TestMapRanges(t *testing.T) {
	g := paperGeom()
	f := func(idx int64) bool {
		if idx < 0 {
			idx = -idx
		}
		idx %= 1 << 40
		for _, remap := range []bool{false, true} {
			l := NewMapper(g, remap).Map(idx)
			if l.Channel < 0 || int(l.Channel) >= g.Channels ||
				l.Rank < 0 || int(l.Rank) >= g.Ranks ||
				l.Bank < 0 || int(l.Bank) >= g.Banks ||
				l.Col < 0 || int(l.Col) >= g.BlocksPerRow() ||
				l.Row < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestXORRemapScattersConflictingRows(t *testing.T) {
	// Two blocks in the same bank but different rows (a conflicting pair
	// under the identity mapping) should usually land in different banks
	// under the XOR permutation — that is the scheme's entire point.
	plain := NewMapper(paperGeom(), false)
	remap := NewMapper(paperGeom(), true)
	bpr := int64(paperGeom().BlocksPerRow())
	rowStride := bpr * int64(paperGeom().Channels) * int64(paperGeom().Banks)

	scattered := 0
	const rows = 16
	for r := int64(1); r < rows; r++ {
		a, b := plain.Map(0), plain.Map(r*rowStride)
		if a.Bank != b.Bank {
			t.Fatalf("test precondition: rows %d apart should share bank 0", r)
		}
		ra, rb := remap.Map(0), remap.Map(r*rowStride)
		if ra.Bank != rb.Bank {
			scattered++
		}
	}
	if scattered < rows-2 {
		t.Fatalf("XOR remap scattered only %d of %d conflicting rows", scattered, rows-1)
	}
}

func TestRowID(t *testing.T) {
	m := NewMapper(paperGeom(), false)
	a := m.Map(0)
	b := m.Map(1) // same row, next column
	if m.RowID(a) != m.RowID(b) {
		t.Fatal("same-row blocks have different RowIDs")
	}
	c := m.Map(int64(paperGeom().BlocksPerRow()))
	if m.RowID(a) == m.RowID(c) {
		t.Fatal("different channel should give different RowID")
	}
}

func TestNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Map(-1) did not panic")
		}
	}()
	NewMapper(paperGeom(), false).Map(-1)
}

// arithmeticMap is the RoBaRaChCo decode written as divisions and
// remainders, the reference the shift-and-mask Mapper must match.
func arithmeticMap(g Geometry, xorRemap bool, idx int64) Loc {
	bpr := int64(g.BlocksPerRow())
	col := idx % bpr
	idx /= bpr
	ch := idx % int64(g.Channels)
	idx /= int64(g.Channels)
	rank := idx % int64(g.Ranks)
	idx /= int64(g.Ranks)
	bank := idx % int64(g.Banks)
	row := idx / int64(g.Banks)
	if xorRemap {
		bank ^= row % int64(g.Banks)
	}
	return Loc{Channel: int32(ch), Rank: int32(rank), Bank: int32(bank), Col: int32(col), Row: row}
}

// TestMapMatchesArithmetic checks the mapper against the division
// decode over every power-of-two shape up to 8 channels x 4 ranks x 16
// banks with 16- to 128-block rows, with and without XOR remapping, on
// a run of consecutive indices and a spread of large ones.
func TestMapMatchesArithmetic(t *testing.T) {
	for ch := 1; ch <= 8; ch *= 2 {
		for ranks := 1; ranks <= 4; ranks *= 2 {
			for banks := 1; banks <= 16; banks *= 2 {
				for bpr := 16; bpr <= 128; bpr *= 2 {
					g := Geometry{Channels: ch, Ranks: ranks, Banks: banks, RowBytes: bpr * 64, BlockSize: 64}
					for _, remap := range []bool{false, true} {
						m := NewMapper(g, remap)
						check := func(idx int64) {
							if got, want := m.Map(idx), arithmeticMap(g, remap, idx); got != want {
								t.Fatalf("%+v remap=%v: Map(%d) = %+v, want %+v", g, remap, idx, got, want)
							}
						}
						span := int64(bpr*ch*ranks*banks) * 3
						for idx := int64(0); idx < span; idx++ {
							check(idx)
						}
						for idx := int64(1); idx > 0 && idx < 1<<40; idx = idx*7 + 3 {
							check(idx)
						}
					}
				}
			}
		}
	}
}
