package dcache

// tagStore is the functional (zero-time) tag state of the DRAM cache:
// which blocks are present, their dirtiness, and LRU order. Timing is
// charged separately by the access chains; the functional state advances
// when the corresponding tag accesses complete.
type tagStore struct {
	geom Geometry
	// Flat arrays indexed by set*ways+way. tag is the block tag, with
	// emptyTag marking an invalid way so the 15-way hit scan touches
	// only two cache lines of tag words; lru and dirty live separately
	// and are loaded only on the miss (victim) path or on a hit way.
	tag  []int64
	dbit []bool
	lru  []uint32
	tick uint32

	// While journaling, every write first records the way's prior state
	// so rollback can undo a timed run without a copy of the arrays.
	journaling bool
	journal    []undo
	savedTick  uint32
}

// undo is one journal entry: a way's state before a write.
type undo struct {
	i     int64
	tag   int64
	lru   uint32
	dirty bool
}

// emptyTag marks an invalid way. Real tags are block addresses divided by
// the set count and therefore non-negative.
const emptyTag = int64(-1)

// newTagStore builds an empty store for g, reusing the arrays of spare
// when they are large enough. spare may be nil; otherwise nothing may
// use it any more.
func newTagStore(g Geometry, spare *tagStore) *tagStore {
	n := g.Sets * int64(g.Ways)
	t := &tagStore{geom: g}
	if spare != nil && int64(cap(spare.tag)) >= n {
		t.tag, t.dbit, t.lru, t.journal = spare.tag[:n], spare.dbit[:n], spare.lru[:n], spare.journal[:0]
		clear(t.dbit)
		clear(t.lru)
	} else {
		t.tag, t.dbit, t.lru = make([]int64, n), make([]bool, n), make([]uint32, n)
	}
	for i := range t.tag {
		t.tag[i] = emptyTag
	}
	return t
}

func (t *tagStore) idx(set int64, way int) int64 { return set*int64(t.geom.Ways) + int64(way) }

// lookup returns the way holding blockAddr, or -1.
func (t *tagStore) lookup(blockAddr int64) (set int64, way int) {
	set = t.geom.SetOf(blockAddr)
	want := t.geom.TagOf(blockAddr)
	base := set * int64(t.geom.Ways)
	for w := 0; w < t.geom.Ways; w++ {
		if t.tag[base+int64(w)] == want {
			return set, w
		}
	}
	return set, -1
}

// lookupOrVictim combines lookup and victim selection for the warm-up
// fast path: way is -1 on a miss, in which case victim is the way to
// replace (the first invalid way if one exists, else LRU). The hit scan
// runs first and touches only the tag words; the victim scan runs only
// on a miss.
func (t *tagStore) lookupOrVictim(blockAddr int64) (set int64, way, victim int) {
	set = t.geom.SetOf(blockAddr)
	want := t.geom.TagOf(blockAddr)
	base := set * int64(t.geom.Ways)
	for w := 0; w < t.geom.Ways; w++ {
		if t.tag[base+int64(w)] == want {
			return set, w, -1
		}
	}
	victim = -1
	var oldest uint32
	for w := 0; w < t.geom.Ways; w++ {
		i := base + int64(w)
		if t.tag[i] == emptyTag {
			victim = w
			break
		}
		if victim < 0 || t.lru[i] < oldest {
			victim, oldest = w, t.lru[i]
		}
	}
	return set, -1, victim
}

// touch updates replacement state for a hit.
func (t *tagStore) touch(set int64, way int) {
	i := t.idx(set, way)
	if t.journaling {
		t.save(i)
	}
	t.tick++
	t.lru[i] = t.tick
}

// dirty returns whether (set, way) holds a dirty block.
func (t *tagStore) dirty(set int64, way int) bool {
	return t.dbit[t.idx(set, way)]
}

// setDirty marks (set, way) dirty.
func (t *tagStore) setDirty(set int64, way int) {
	i := t.idx(set, way)
	if t.journaling {
		t.save(i)
	}
	t.dbit[i] = true
}

// victim selects the replacement way in set: an invalid way if one
// exists, otherwise the LRU way.
func (t *tagStore) victim(set int64) int {
	victim, oldest := 0, uint32(0)
	first := true
	for w := 0; w < t.geom.Ways; w++ {
		i := t.idx(set, w)
		if t.tag[i] == emptyTag {
			return w
		}
		if first || t.lru[i] < oldest {
			victim, oldest, first = w, t.lru[i], false
		}
	}
	return victim
}

// victimInfo reports the block currently in (set, way).
func (t *tagStore) victimInfo(set int64, way int) (blockAddr int64, valid, dirty bool) {
	i := t.idx(set, way)
	if t.tag[i] == emptyTag {
		return 0, false, false
	}
	return t.tag[i]*t.geom.Sets + set, true, t.dbit[i]
}

// install places blockAddr into (set, way), replacing the previous
// occupant, and touches replacement state.
func (t *tagStore) install(blockAddr int64, set int64, way int, dirty bool) {
	i := t.idx(set, way)
	if t.journaling {
		t.save(i)
	}
	t.tag[i] = t.geom.TagOf(blockAddr)
	t.dbit[i] = dirty
	t.tick++
	t.lru[i] = t.tick
}

// checkpoint starts journaling writes so rollback can return the store
// to its current state.
func (t *tagStore) checkpoint() {
	t.journaling = true
	t.journal = t.journal[:0]
	t.savedTick = t.tick
}

// save journals way i before a write. A journal entry takes about twice
// the 13 bytes a way does, so once it holds half as many entries as the
// store has ways it would outweigh a plain copy of the store: it is then
// dropped, and rollback reports failure.
func (t *tagStore) save(i int64) {
	if len(t.journal) >= len(t.tag)/2 {
		t.journaling = false
		t.journal = nil
		return
	}
	t.journal = append(t.journal, undo{i: i, tag: t.tag[i], lru: t.lru[i], dirty: t.dbit[i]})
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
		t.tag[u.i], t.lru[u.i], t.dbit[u.i] = u.tag, u.lru, u.dirty
	}
	t.tick = t.savedTick
	t.journal = t.journal[:0]
	t.journaling = false
	return true
}
