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
//
// The cache is one array of words, ways+1 per set: a word per way
// holding its tag plus one, with the dirty bit in bit 63, so a zero word
// is an invalid way; then the set's order word (see Promote). A zero
// array is an empty cache. Only a way that gets a block is promoted and
// nothing invalidates a way, so a set's invalid ways stay behind all its
// valid ones in the order: the least recently used way is an invalid
// one while the set has one, and a miss needs no other rule.
type Cache struct {
	sets int64
	ways int

	// Power-of-two set counts (the common case) split addresses with a
	// mask and shift instead of the int64 div/mod pair, which dominates
	// the cost of small-way accesses.
	setsPow2 bool
	setMask  int64
	setShift uint

	words []uint64

	Hits   int64
	Misses int64
}

const dirtyBit = uint64(1) << 63

// SetCount returns the number of sets of a cache of sizeBytes in
// blocks of blockBytes over ways, or an error when that shape has no
// whole, non-empty set: a non-positive parameter, more than MaxWays
// ways, fewer blocks than ways, or a block count the ways do not divide.
func SetCount(sizeBytes int64, blockBytes, ways int) (int64, error) {
	if sizeBytes <= 0 || blockBytes <= 0 || ways <= 0 {
		return 0, fmt.Errorf("cache: non-positive parameter size=%d block=%d ways=%d", sizeBytes, blockBytes, ways)
	}
	if ways > MaxWays {
		return 0, fmt.Errorf("cache: %d ways exceed the %d an LRU order word holds", ways, MaxWays)
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
	if n := sets * int64(ways+1); spare != nil && int64(cap(spare.words)) >= n {
		c.words = spare.words[:n]
		clear(c.words)
	} else {
		c.words = make([]uint64, n)
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
	var words []uint64
	if dst != nil {
		words = dst.words[:0]
	} else {
		dst = &Cache{}
	}
	*dst = *c
	dst.words = append(words, c.words...)
	return dst
}

// set returns the words of blockAddr's set, its ways then its order
// word, and the tag word blockAddr's way would hold.
func (c *Cache) set(blockAddr int64) (ws []uint64, set int64, want uint64) {
	var tag int64
	if c.setsPow2 {
		set, tag = blockAddr&c.setMask, blockAddr>>c.setShift
	} else {
		tag = blockAddr / c.sets
		set = blockAddr - tag*c.sets
	}
	n := int64(c.ways + 1)
	return c.words[set*n : set*n+n], set, uint64(tag) + 1
}

// find returns the way of ws holding the tag word want, or -1.
func (c *Cache) find(ws []uint64, want uint64) int {
	for w, x := range ws[:c.ways] {
		if x&^dirtyBit == want {
			return w
		}
	}
	return -1
}

// Sets returns the number of sets.
func (c *Cache) Sets() int64 { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

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
// operation and every timed memory operation passes through it): a hit
// scans the way words once and promotes without a branch, and a miss
// replaces the order word's least recently used way without a scan.
//
//dcalint:noalloc
func (c *Cache) Access(blockAddr int64, write bool) Result {
	ws, set, want := c.set(blockAddr)
	var dirty uint64
	if write {
		dirty = dirtyBit
	}
	o := &ws[c.ways]
	if w := c.find(ws, want); w >= 0 {
		c.Hits++
		ws[w] |= dirty
		*o = Promote(*o, w)
		return Result{Hit: true}
	}
	c.Misses++
	v := LRU(*o, c.ways)
	x := ws[v]
	ws[v] = want | dirty
	*o = Promote(*o, v)
	if x == 0 {
		return Result{}
	}
	return Result{VictimAddr: int64(x&^dirtyBit-1)*c.sets + set, VictimValid: true, VictimDirty: x&dirtyBit != 0}
}

// Touch performs a read-hit check in a single way scan: on a hit it
// counts the hit and refreshes LRU state, exactly as Access would; on a
// miss it changes nothing and counts nothing (allocation — and the miss
// count — happen later, when the caller installs the fill). It exists so
// no-allocate-on-miss callers don't pay a Probe scan plus an Access scan.
//
//dcalint:noalloc
func (c *Cache) Touch(blockAddr int64) bool {
	ws, _, want := c.set(blockAddr)
	w := c.find(ws, want)
	if w < 0 {
		return false
	}
	c.Hits++
	ws[c.ways] = Promote(ws[c.ways], w)
	return true
}

// Probe reports presence without changing any state.
func (c *Cache) Probe(blockAddr int64) (present, dirty bool) {
	ws, _, want := c.set(blockAddr)
	w := c.find(ws, want)
	if w < 0 {
		return false, false
	}
	return true, ws[w]&dirtyBit != 0
}

// Clean clears the dirty bit of blockAddr if present, returning whether
// it was present and dirty. Used by the Lee DRAM-aware writeback policy,
// which eagerly writes row-mates back and leaves them resident clean.
func (c *Cache) Clean(blockAddr int64) bool {
	ws, _, want := c.set(blockAddr)
	w := c.find(ws, want)
	if w < 0 {
		return false
	}
	was := ws[w]&dirtyBit != 0
	ws[w] &^= dirtyBit
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
