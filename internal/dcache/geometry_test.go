package dcache

import (
	"strings"
	"testing"

	"dcasim/internal/addrmap"
	"dcasim/internal/rng"
)

func paperDRAM() addrmap.Geometry {
	return addrmap.Geometry{Channels: 4, Ranks: 1, Banks: 16, RowBytes: 4096, BlockSize: 64}
}

func TestSetAssocGeometry(t *testing.T) {
	g, err := NewGeometry(SetAssoc, 256<<20, paperDRAM())
	if err != nil {
		t.Fatal(err)
	}
	if g.Rows != 65536 {
		t.Fatalf("rows = %d, want 65536", g.Rows)
	}
	if g.Sets != 65536*4 || g.Ways != 15 {
		t.Fatalf("sets/ways = %d/%d, want 262144/15", g.Sets, g.Ways)
	}
	// The paper's 240 MB data capacity in a 256 MB array.
	if got := g.DataCapacity(); got != 240<<20 {
		t.Fatalf("data capacity = %d MB, want 240", got>>20)
	}
}

func TestDirectMappedGeometry(t *testing.T) {
	g, err := NewGeometry(DirectMapped, 256<<20, paperDRAM())
	if err != nil {
		t.Fatal(err)
	}
	if g.Sets != g.Rows*dmTADsPerRow || g.Ways != 1 {
		t.Fatalf("sets/ways = %d/%d", g.Sets, g.Ways)
	}
	// 56 x 72 B TADs use 4032 of 4096 row bytes.
	if got := g.DataCapacity(); got != g.Sets*64 {
		t.Fatalf("data capacity = %d", got)
	}
}

func TestGeometryErrors(t *testing.T) {
	if _, err := NewGeometry(SetAssoc, 1000, paperDRAM()); err == nil {
		t.Error("non-row-multiple size accepted")
	}
	bad := paperDRAM()
	bad.BlockSize = 128
	if _, err := NewGeometry(SetAssoc, 256<<20, bad); err == nil {
		t.Error("non-64B block accepted")
	}
	// The layout packs a 4 KB row; any other row would split a set's tag
	// and data across rows, or leave most of each row unused.
	for _, row := range []int{64, 2048, 8192} {
		bad := paperDRAM()
		bad.RowBytes = row
		for _, org := range []Org{SetAssoc, DirectMapped} {
			if _, err := NewGeometry(org, 256<<20, bad); err == nil || !strings.Contains(err.Error(), "RowBytes") {
				t.Errorf("%v over %d-byte rows: err = %v, want one naming RowBytes", org, row, err)
			}
		}
	}
}

// TestSetMapping: SetOf and TagOf are the remainder and quotient of the
// set count, in both organizations and over row counts that make the
// set count a power of two, an odd number, or neither.
func TestSetMapping(t *testing.T) {
	r := rng.New(7)
	for _, org := range []Org{SetAssoc, DirectMapped} {
		for _, rows := range []int64{1, 3, 4, 5, 12, 4096} {
			g, err := NewGeometry(org, rows*RowBytes, paperDRAM())
			if err != nil {
				t.Fatal(err)
			}
			addrs := []int64{0, g.Sets - 1, g.Sets, g.Sets + 5, 1<<62 - 1}
			for i := 0; i < 1000; i++ {
				addrs = append(addrs, int64(r.Uint64()>>(1+r.Intn(62))))
			}
			for _, a := range addrs {
				if set, tag := g.SetOf(a), g.TagOf(a); set != a%g.Sets || tag != a/g.Sets {
					t.Fatalf("%v over %d rows: block %d maps to set %d tag %d, want %d and %d", org, rows, a, set, tag, a%g.Sets, a/g.Sets)
				}
			}
		}
	}
}

func TestTagAndDataLocations(t *testing.T) {
	g, _ := NewGeometry(SetAssoc, 16<<20, paperDRAM())
	m := addrmap.NewMapper(paperDRAM(), false)

	for set := int64(0); set < 8; set++ {
		tl := g.TagLoc(set, m)
		if int(tl.Col) != int(set%4) {
			t.Fatalf("set %d tag block at col %d, want %d (tags live in cols 0-3)", set, tl.Col, set%4)
		}
		for way := 0; way < saWays; way++ {
			dl := g.DataLoc(set, way, m)
			wantCol := saTagCols + int(set%4)*saWays + way
			if int(dl.Col) != wantCol {
				t.Fatalf("set %d way %d at col %d, want %d", set, way, dl.Col, wantCol)
			}
			// Tag and data of one set share a DRAM row.
			if m.RowID(dl) != m.RowID(tl) {
				t.Fatalf("set %d way %d: data and tag in different rows", set, way)
			}
		}
	}
}

func TestDataLocsDistinct(t *testing.T) {
	// No two (set, way) pairs may alias to the same DRAM location.
	g, _ := NewGeometry(SetAssoc, 16<<20, paperDRAM())
	m := addrmap.NewMapper(paperDRAM(), false)
	seen := map[addrmap.Loc]string{}
	for set := int64(0); set < 64; set++ {
		tl := g.TagLoc(set, m)
		if prev, ok := seen[tl]; ok {
			t.Fatalf("tag of set %d collides with %s", set, prev)
		}
		seen[tl] = "tag"
		for way := 0; way < g.Ways; way++ {
			dl := g.DataLoc(set, way, m)
			if prev, ok := seen[dl]; ok {
				t.Fatalf("set %d way %d collides with %s", set, way, prev)
			}
			seen[dl] = "data"
		}
	}
}

func TestTagRowSiblings(t *testing.T) {
	g, _ := NewGeometry(SetAssoc, 16<<20, paperDRAM())
	sib := g.TagRowSiblings(6)
	want := []int64{4, 5, 6, 7}
	if len(sib) != 4 {
		t.Fatalf("siblings = %v", sib)
	}
	for i := range want {
		if sib[i] != want[i] {
			t.Fatalf("siblings = %v, want %v", sib, want)
		}
	}
	gdm, _ := NewGeometry(DirectMapped, 16<<20, paperDRAM())
	if gdm.TagRowSiblings(6) != nil {
		t.Fatal("direct-mapped design has no tag-block siblings")
	}
}

func TestDMTagLocWithinRow(t *testing.T) {
	g, _ := NewGeometry(DirectMapped, 16<<20, paperDRAM())
	m := addrmap.NewMapper(paperDRAM(), false)
	a := g.TagLoc(0, m)
	b := g.TagLoc(dmTADsPerRow-1, m)
	if m.RowID(a) != m.RowID(b) {
		t.Fatal("TADs 0 and 55 should share the first row")
	}
	c := g.TagLoc(dmTADsPerRow, m)
	if m.RowID(a) == m.RowID(c) {
		t.Fatal("TAD 56 should start the next row")
	}
}
