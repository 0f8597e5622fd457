package cache

import (
	"testing"

	"dcasim/internal/rng"
)

// oracleCache is the reference the cache is tested against: the
// stamp-based layout it replaced, one 16-byte record of tag, LRU stamp
// and dirty flag per way, with a per-cache clock. A victim is the first
// invalid way, else the way with the oldest stamp.
type oracleCache struct {
	sets, ways int64
	lines      []oracleLine
	tick       uint32

	Hits, Misses int64
}

type oracleLine struct {
	tag   int64 // -1 marks an invalid way
	lru   uint32
	dirty bool
}

// newOracle builds an empty oracle of sets × ways, reusing spare's array
// when it is large enough.
func newOracle(sets, ways int64, spare *oracleCache) *oracleCache {
	c := &oracleCache{sets: sets, ways: ways}
	if n := sets * ways; spare != nil && int64(cap(spare.lines)) >= n {
		c.lines = spare.lines[:n]
	} else {
		c.lines = make([]oracleLine, n)
	}
	for i := range c.lines {
		c.lines[i] = oracleLine{tag: -1}
	}
	return c
}

func (c *oracleCache) copyTo(dst *oracleCache) *oracleCache {
	var lines []oracleLine
	if dst != nil {
		lines = dst.lines[:0]
	} else {
		dst = &oracleCache{}
	}
	*dst = *c
	dst.lines = append(lines, c.lines...)
	return dst
}

// set returns blockAddr's set index and its lines.
func (c *oracleCache) set(blockAddr int64) (int64, []oracleLine) {
	set := blockAddr % c.sets
	return set, c.lines[set*c.ways : (set+1)*c.ways]
}

func (c *oracleCache) find(blockAddr int64) *oracleLine {
	_, ls := c.set(blockAddr)
	for i := range ls {
		if ls[i].tag == blockAddr/c.sets {
			return &ls[i]
		}
	}
	return nil
}

func (c *oracleCache) access(blockAddr int64, write bool) Result {
	c.tick++
	if l := c.find(blockAddr); l != nil {
		c.Hits++
		l.lru = c.tick
		l.dirty = l.dirty || write
		return Result{Hit: true}
	}
	c.Misses++
	set, ls := c.set(blockAddr)
	victim := 0
	for w := range ls {
		if ls[w].tag == -1 {
			victim = w
			break
		}
		if ls[w].lru < ls[victim].lru {
			victim = w
		}
	}
	l := &ls[victim]
	res := Result{}
	if l.tag != -1 {
		res = Result{VictimAddr: l.tag*c.sets + set, VictimValid: true, VictimDirty: l.dirty}
	}
	*l = oracleLine{tag: blockAddr / c.sets, lru: c.tick, dirty: write}
	return res
}

func (c *oracleCache) touch(blockAddr int64) bool {
	l := c.find(blockAddr)
	if l == nil {
		return false
	}
	c.Hits++
	c.tick++
	l.lru = c.tick
	return true
}

func (c *oracleCache) probe(blockAddr int64) (present, dirty bool) {
	if l := c.find(blockAddr); l != nil {
		return true, l.dirty
	}
	return false, false
}

func (c *oracleCache) clean(blockAddr int64) bool {
	l := c.find(blockAddr)
	if l == nil {
		return false
	}
	was := l.dirty
	l.dirty = false
	return was
}

// cacheShapes are the shapes driveCache runs: the ways of Table II's L1
// and L2, the limits 1 and MaxWays, and odd ones, each over a
// power-of-two set count and one that is not.
var cacheShapes = func() (shapes [][2]int64) {
	for _, ways := range []int64{1, 2, 3, 4, 15, 16} {
		for _, sets := range []int64{8, 12} {
			shapes = append(shapes, [2]int64{sets, ways})
		}
	}
	return shapes
}()

// driveCache runs program on a cache of sets × ways and on the oracle,
// and fails at the first Result, hit or miss count, Touch, Probe or
// Clean answer that differs; at the end every block the program named
// must probe alike. Each op is three bytes: an opcode and two operands
// naming a block: a set, one of 3×ways+2 tags, and, by the opcode's top
// bit, a region 2^40 blocks up, as cores' address ranges are. CopyTo
// continues on the copy, its original kept as the next copy's target;
// New starts over on the previous cache's array.
func driveCache(t *testing.T, sets, ways int64, program []byte) {
	t.Helper()
	c, err := New(sets*ways*64, 64, int(ways), nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := newOracle(sets, ways, nil)
	var spare *Cache
	var refSpare *oracleCache
	named := map[int64]bool{}
	for pc := 0; pc+2 < len(program); pc += 3 {
		op, a, b := program[pc], program[pc+1], program[pc+2]
		addr := int64(a)%sets + int64(b)%(3*ways+2)*sets + int64(op>>7)<<40
		fail := func(what string, got, want any) {
			t.Helper()
			t.Fatalf("%d×%d op %d (%d %d %d) %s(%d): got %v, want %v", sets, ways, pc/3, op, a, b, what, addr, got, want)
		}
		switch op & 0x7f % 8 {
		case 0, 1, 2: // Access, a store on 1
			named[addr] = true
			if got, want := c.Access(addr, op&0x7f%8 == 1), ref.access(addr, op&0x7f%8 == 1); got != want {
				fail("Access", got, want)
			}
		case 3:
			if got, want := c.Touch(addr), ref.touch(addr); got != want {
				fail("Touch", got, want)
			}
		case 4:
			p1, d1 := c.Probe(addr)
			p2, d2 := ref.probe(addr)
			if p1 != p2 || d1 != d2 {
				fail("Probe", [2]bool{p1, d1}, [2]bool{p2, d2})
			}
		case 5:
			if got, want := c.Clean(addr), ref.clean(addr); got != want {
				fail("Clean", got, want)
			}
		case 6:
			c, spare = c.CopyTo(spare), c
			ref, refSpare = ref.copyTo(refSpare), ref
		case 7:
			if c, err = New(sets*ways*64, 64, int(ways), c); err != nil {
				t.Fatal(err)
			}
			ref = newOracle(sets, ways, ref)
		}
		if c.Hits != ref.Hits || c.Misses != ref.Misses {
			fail("counters", [2]int64{c.Hits, c.Misses}, [2]int64{ref.Hits, ref.Misses})
		}
	}
	for addr := range named {
		p1, d1 := c.Probe(addr)
		p2, d2 := ref.probe(addr)
		if p1 != p2 || d1 != d2 {
			t.Fatalf("%d×%d: final Probe(%d) = %v %v, want %v %v", sets, ways, addr, p1, d1, p2, d2)
		}
	}
}

// TestCacheMatchesOracle: seeded random programs, whose New ops are rare
// enough that sets fill and evict, return what the stamp-based oracle
// returns at every step, in every shape.
func TestCacheMatchesOracle(t *testing.T) {
	for _, shape := range cacheShapes {
		for seed := uint64(1); seed <= 4; seed++ {
			r := rng.New(seed)
			program := make([]byte, 3*20_000)
			for i := range program {
				program[i] = byte(r.Uint64())
			}
			// Most New ops become Accesses, so a cache lives for about
			// 400 ops.
			for pc := 0; pc < len(program); pc += 3 {
				if program[pc]&0x7f%8 == 7 && r.Intn(50) != 0 {
					program[pc] -= 7
				}
			}
			driveCache(t, shape[0], shape[1], program)
		}
	}
}

// FuzzCache runs driveCache's programs in every shape. The checked-in
// corpus adds a set filled and evicted through dirty victims, touches and
// cleans among misses, and copies and restarts mid-program.
func FuzzCache(f *testing.F) {
	f.Add([]byte{1, 3, 0, 0, 3, 1, 1, 3, 2, 0, 3, 3, 0, 3, 4, 4, 3, 0, 2, 3, 5, 5, 3, 0})
	f.Add([]byte{0, 1, 0, 6, 0, 0, 3, 1, 0, 0, 1, 1, 7, 0, 0, 0, 1, 0, 4, 1, 0})
	f.Fuzz(func(t *testing.T, program []byte) {
		for _, shape := range cacheShapes {
			driveCache(t, shape[0], shape[1], program)
		}
	})
}
