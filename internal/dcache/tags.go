package dcache

import "dcasim/internal/cache"

// tagStore is the functional (zero-time) tag state of the DRAM cache:
// which blocks are present, their dirtiness, and LRU order. Timing is
// charged separately by the access chains; the functional state advances
// when the corresponding tag accesses complete.
//
// The store is one array of words. A way is one word holding its tag
// plus one, with the dirty bit in bit 63, so a zero word is an invalid
// way. A set-associative set is one 16-word, 128-byte record, as the
// Loh–Hill tag block keeps a set's tags together: its 15 way words, then
// an order word of the 15 way indices, four bits each, most recently
// used first, kept by the SRAM caches' helpers (cache.Promote). A zero
// order word reads as the identity order, so a cleared array is an empty
// store. A direct-mapped set is one way word and keeps no order: a 1-way
// set has no replacement choice.
type tagStore struct {
	geom  Geometry
	words []uint64
	shift uint // log2 of the words per set: recShift, or 0 for one way

	// While journaling, every write first records the set's prior state
	// so rollback can undo a timed run without a copy of the store.
	journaling bool
	journal    []undo
}

// undo is one journal entry: a way word and, in a set-associative set,
// its record's order word, before a write.
type undo struct {
	i     int64 // index of the way word
	way   uint64
	order uint64
}

const (
	dirtyBit = uint64(1) << 63

	// A set-associative record is 1<<recShift words: saWays way words
	// and the order word.
	recShift  = 4
	orderWord = 1<<recShift - 1
)

// newTagStore builds an empty store for g, reusing spare's memory when it
// is large enough. spare may be nil; otherwise nothing may use it any
// more.
func newTagStore(g Geometry, spare *tagStore) *tagStore {
	t := &tagStore{geom: g}
	if g.Ways > 1 {
		t.shift = recShift
	}
	n := g.Sets << t.shift
	if spare == nil || int64(cap(spare.words)) < n {
		t.words = make([]uint64, n)
		return t
	}
	t.words = spare.words[:n]
	clear(t.words)
	t.journal = spare.journal[:0]
	return t
}

func (t *tagStore) idx(set int64, way int) int64 { return set<<t.shift + int64(way) }

// find returns the way of set that holds tag, or -1.
func (t *tagStore) find(set, tag int64) int {
	want := uint64(tag) + 1
	if t.shift == 0 {
		if t.words[set]&^dirtyBit == want {
			return 0
		}
		return -1
	}
	for w, x := range t.words[set<<recShift:][:saWays] {
		if x&^dirtyBit == want {
			return w
		}
	}
	return -1
}

// lookup returns the way holding blockAddr, or -1.
func (t *tagStore) lookup(blockAddr int64) (set int64, way int) {
	set = t.geom.SetOf(blockAddr)
	return set, t.find(set, t.geom.tagIn(blockAddr, set))
}

// lookupOrVictim combines lookup and victim selection for the warm-up
// fast path, for a block and the set it maps to: way is -1 on a miss, in
// which case victim is the way to replace (the first invalid way if one
// exists, else LRU).
//
//dcalint:noalloc
func (t *tagStore) lookupOrVictim(blockAddr, set int64) (way, victim int) {
	if way = t.find(set, t.geom.tagIn(blockAddr, set)); way >= 0 {
		return way, -1
	}
	return -1, t.victim(set)
}

// victim selects the replacement way in set: an invalid way if one
// exists, otherwise the LRU way.
func (t *tagStore) victim(set int64) int {
	if t.shift == 0 {
		return 0
	}
	rec := t.words[set<<recShift:][:orderWord+1]
	for w, x := range rec[:saWays] {
		if x == 0 {
			return w
		}
	}
	return cache.LRU(rec[orderWord], saWays)
}

// promote moves way to the front of set's LRU order.
func (t *tagStore) promote(set int64, way int) {
	o := &t.words[set<<recShift+orderWord]
	*o = cache.Promote(*o, way)
}

// touch updates replacement state for a hit. A 1-way store has none.
//
//dcalint:noalloc
func (t *tagStore) touch(set int64, way int) {
	if t.shift == 0 {
		return
	}
	if t.journaling {
		t.save(t.idx(set, way))
	}
	t.promote(set, way)
}

// dirty returns whether (set, way) holds a dirty block.
func (t *tagStore) dirty(set int64, way int) bool {
	return t.words[t.idx(set, way)]&dirtyBit != 0
}

// setDirty marks the block in (set, way) dirty.
func (t *tagStore) setDirty(set int64, way int) {
	i := t.idx(set, way)
	if t.journaling {
		t.save(i)
	}
	t.words[i] |= dirtyBit
}

// victimInfo reports the block currently in (set, way).
func (t *tagStore) victimInfo(set int64, way int) (blockAddr int64, valid, dirty bool) {
	x := t.words[t.idx(set, way)]
	if x == 0 {
		return 0, false, false
	}
	return int64(x&^dirtyBit-1)*t.geom.Sets + set, true, x&dirtyBit != 0
}

// install places blockAddr into (set, way), replacing the previous
// occupant, and touches replacement state.
//
//dcalint:noalloc
func (t *tagStore) install(blockAddr int64, set int64, way int, dirty bool) {
	i := t.idx(set, way)
	if t.journaling {
		t.save(i)
	}
	x := uint64(t.geom.tagIn(blockAddr, set)) + 1
	if dirty {
		x |= dirtyBit
	}
	t.words[i] = x
	if t.shift != 0 {
		t.promote(set, way)
	}
}

// preload maps each call's block to its set, into sets, and loads the
// words of those sets, both 64-byte lines of a set-associative record,
// returning their sum. Loading a batch of sets before their calls scan
// them lets the host overlap the misses that one dependent scan after
// another would each wait out.
//
//dcalint:noalloc
func (t *tagStore) preload(calls []warmCall, sets []int64) (sum uint64) {
	sets = sets[:len(calls)]
	if t.shift == 0 {
		for i := range calls {
			sets[i] = t.geom.SetOf(calls[i].addr)
			sum += t.words[sets[i]]
		}
		return sum
	}
	for i := range calls {
		sets[i] = t.geom.SetOf(calls[i].addr)
		rec := t.words[sets[i]<<recShift:][:orderWord+1]
		sum += rec[0] + rec[8]
	}
	return sum
}

// checkpoint starts journaling writes so rollback can return the store
// to its current state.
func (t *tagStore) checkpoint() {
	t.journaling = true
	t.journal = t.journal[:0]
}

// save journals way word i, and its order word, before a write. A
// journal entry takes 24 bytes, about three times the 8.5 bytes a
// set-associative way takes (8 bytes direct-mapped), so once it holds
// half as many entries as the store has ways it outweighs a plain copy
// of the store by 40–50%: it is then dropped, and rollback reports
// failure.
func (t *tagStore) save(i int64) {
	if int64(len(t.journal)) >= t.geom.Sets*int64(t.geom.Ways)/2 {
		t.journaling = false
		t.journal = nil
		return
	}
	u := undo{i: i, way: t.words[i]}
	if t.shift != 0 {
		u.order = t.words[i|orderWord]
	}
	t.journal = append(t.journal, u)
}

// rollback undoes every write since checkpoint, newest first, and stops
// journaling. It reports false, undoing nothing, when there is no journal
// to replay: no checkpoint, or a journal dropped by save.
func (t *tagStore) rollback() bool {
	if !t.journaling {
		return false
	}
	for k := len(t.journal) - 1; k >= 0; k-- {
		u := t.journal[k]
		t.words[u.i] = u.way
		if t.shift != 0 {
			t.words[u.i|orderWord] = u.order
		}
	}
	t.journal = t.journal[:0]
	t.journaling = false
	return true
}
