// Package cache implements the functional SRAM caches of the hierarchy
// above the DRAM cache: per-core L1s and the shared L2. The caches are
// functional (hit/miss and replacement state); their latencies are
// charged by the CPU model, which is where timing lives.
package cache

import (
	"fmt"
	"math/bits"
)

// Cache is a set-associative, write-back, write-allocate cache with LRU
// replacement over block addresses (physical address >> log2(block)).
type Cache struct {
	sets int64
	ways int

	// Power-of-two set counts (the common case) split addresses with a
	// mask and shift instead of the int64 div/mod pair, which dominates
	// the cost of small-way accesses.
	setsPow2 bool
	setMask  int64
	setShift uint

	// lines packs each way's tag, LRU stamp, and dirty bit into one
	// 16-byte record so a set's state is contiguous (a two-way L1 set is
	// a single CPU cache line; a 16-way L2 set is four sequential ones).
	// emptyTag marks an invalid way.
	lines []line
	tick  uint32

	Hits   int64
	Misses int64
}

type line struct {
	tag   int64
	lru   uint32
	dirty bool
}

// emptyTag marks an invalid way. Real tags are block addresses divided by
// the set count and therefore non-negative.
const emptyTag = int64(-1)

// SetCount returns the number of sets of a cache of sizeBytes in
// blocks of blockBytes over ways, or an error when that shape has no
// whole, non-empty set: a non-positive parameter, fewer blocks than
// ways, or a block count the ways do not divide.
func SetCount(sizeBytes int64, blockBytes, ways int) (int64, error) {
	if sizeBytes <= 0 || blockBytes <= 0 || ways <= 0 {
		return 0, fmt.Errorf("cache: non-positive parameter size=%d block=%d ways=%d", sizeBytes, blockBytes, ways)
	}
	blocks := sizeBytes / int64(blockBytes)
	if blocks < int64(ways) {
		return 0, fmt.Errorf("cache: %d blocks are fewer than %d ways", blocks, ways)
	}
	if blocks%int64(ways) != 0 {
		return 0, fmt.Errorf("cache: %d blocks not divisible by %d ways", blocks, ways)
	}
	return blocks / int64(ways), nil
}

// New builds an empty cache of the given total size (see SetCount for
// the shapes it accepts). spare, when non-nil, is a cache nothing uses
// any more: its array is reused if large enough.
func New(sizeBytes int64, blockBytes, ways int, spare *Cache) (*Cache, error) {
	sets, err := SetCount(sizeBytes, blockBytes, ways)
	if err != nil {
		return nil, err
	}
	c := &Cache{sets: sets, ways: ways}
	if n := sets * int64(ways); spare != nil && int64(cap(spare.lines)) >= n {
		c.lines = spare.lines[:n]
	} else {
		c.lines = make([]line, n)
	}
	for i := range c.lines {
		c.lines[i] = line{tag: emptyTag}
	}
	if sets&(sets-1) == 0 {
		c.setsPow2 = true
		c.setMask = sets - 1
		c.setShift = uint(bits.TrailingZeros64(uint64(sets)))
	}
	return c, nil
}

// CopyTo makes dst an independent copy of c — contents, replacement
// state and counters — reusing dst's array when it is large enough, and
// returns it. dst may be nil; otherwise nothing else may use it.
func (c *Cache) CopyTo(dst *Cache) *Cache {
	var lines []line
	if dst != nil {
		lines = dst.lines[:0]
	} else {
		dst = &Cache{}
	}
	*dst = *c
	dst.lines = append(lines, c.lines...)
	return dst
}

// split maps a block address to its (set, tag) pair.
func (c *Cache) split(blockAddr int64) (set, tag int64) {
	if c.setsPow2 {
		return blockAddr & c.setMask, blockAddr >> c.setShift
	}
	return blockAddr % c.sets, blockAddr / c.sets
}

// Sets returns the number of sets.
func (c *Cache) Sets() int64 { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

func (c *Cache) idx(set int64, way int) int64 { return set*int64(c.ways) + int64(way) }

func (c *Cache) find(blockAddr int64) (set int64, way int) {
	set, t := c.split(blockAddr)
	base := set * int64(c.ways)
	for w := 0; w < c.ways; w++ {
		if c.lines[base+int64(w)].tag == t {
			return set, w
		}
	}
	return set, -1
}

// Result reports the outcome of an Access.
type Result struct {
	Hit         bool
	VictimAddr  int64 // block displaced by the allocation (misses only)
	VictimValid bool
	VictimDirty bool
}

// Access performs a load (write=false) or store (write=true) with
// allocate-on-miss semantics and returns the displaced victim, if any.
// This is the hottest loop of the whole simulator (every warm-up
// operation and every timed memory operation passes through it): the hit
// scan touches only the tag words, and the victim scan runs only on a
// miss.
//
//dcalint:noalloc
func (c *Cache) Access(blockAddr int64, write bool) Result {
	set, tg := c.split(blockAddr)
	ws := c.lines[set*int64(c.ways) : (set+1)*int64(c.ways)]
	c.tick++
	for w := range ws {
		l := &ws[w]
		if l.tag == tg {
			c.Hits++
			l.lru = c.tick
			if write {
				l.dirty = true
			}
			return Result{Hit: true}
		}
	}
	c.Misses++
	victim := -1
	var oldest uint32
	for w := range ws {
		l := &ws[w]
		if l.tag == emptyTag {
			victim = w
			break
		}
		if victim < 0 || l.lru < oldest {
			victim, oldest = w, l.lru
		}
	}
	l := &ws[victim]
	res := Result{}
	if l.tag != emptyTag {
		res.VictimAddr = l.tag*c.sets + set
		res.VictimValid = true
		res.VictimDirty = l.dirty
	}
	l.tag = tg
	l.dirty = write
	l.lru = c.tick
	return res
}

// Touch performs a read-hit check in a single way scan: on a hit it
// counts the hit and refreshes LRU state, exactly as Access would; on a
// miss it changes nothing and counts nothing (allocation — and the miss
// count — happen later, when the caller installs the fill). It exists so
// no-allocate-on-miss callers don't pay a Probe scan plus an Access scan.
//
//dcalint:noalloc
func (c *Cache) Touch(blockAddr int64) bool {
	set, tg := c.split(blockAddr)
	ws := c.lines[set*int64(c.ways) : (set+1)*int64(c.ways)]
	for w := range ws {
		l := &ws[w]
		if l.tag == tg {
			c.Hits++
			c.tick++
			l.lru = c.tick
			return true
		}
	}
	return false
}

// Probe reports presence without changing any state.
func (c *Cache) Probe(blockAddr int64) (present, dirty bool) {
	set, way := c.find(blockAddr)
	if way < 0 {
		return false, false
	}
	return true, c.lines[c.idx(set, way)].dirty
}

// Clean clears the dirty bit of blockAddr if present, returning whether
// it was dirty. Used by the Lee DRAM-aware writeback policy, which
// eagerly writes row-mates back and leaves them resident clean.
func (c *Cache) Clean(blockAddr int64) bool {
	set, way := c.find(blockAddr)
	if way < 0 {
		return false
	}
	l := &c.lines[c.idx(set, way)]
	was := l.dirty
	l.dirty = false
	return was
}

// MissRate returns misses / (hits+misses), or 0 with no traffic.
func (c *Cache) MissRate() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Misses) / float64(total)
}

// ResetStats clears hit/miss counters.
func (c *Cache) ResetStats() { c.Hits, c.Misses = 0, 0 }
