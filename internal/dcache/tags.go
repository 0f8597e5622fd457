package dcache

// tagStore is the functional (zero-time) tag state of the DRAM cache:
// which blocks are present, their dirtiness, and LRU order. Timing is
// charged separately by the access chains; the functional state advances
// when the corresponding tag accesses complete.
type tagStore struct {
	geom Geometry
	// Per-way state, way set*ways+way. tag is the block tag, with
	// emptyTag marking an invalid way so the 15-way hit scan touches
	// only two cache lines of tag words; lru and the dirty bits live
	// separately and are loaded only on the miss (victim) path or on a
	// hit way. dbit packs the dirty bits 64 ways to a word. A 1-way
	// (direct-mapped) store has no replacement choice, so it keeps no
	// lru array at all.
	tag  []int64
	dbit []uint64
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

// newTagStore builds an empty store for g, reusing each array of spare
// that is large enough. spare may be nil; otherwise nothing may use it
// any more.
func newTagStore(g Geometry, spare *tagStore) *tagStore {
	n := g.Sets * int64(g.Ways)
	if spare == nil {
		spare = &tagStore{}
	}
	t := &tagStore{
		geom:    g,
		tag:     reuse(spare.tag, n),
		dbit:    reuse(spare.dbit, (n+63)/64),
		journal: spare.journal[:0],
	}
	if g.Ways > 1 {
		t.lru = reuse(spare.lru, n)
	}
	for i := range t.tag {
		t.tag[i] = emptyTag
	}
	return t
}

// reuse returns s resliced to n zeroed elements when its capacity
// allows, and a new slice otherwise.
func reuse[E any](s []E, n int64) []E {
	if int64(cap(s)) < n {
		return make([]E, n)
	}
	s = s[:n]
	clear(s)
	return s
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
//
//dcalint:noalloc
func (t *tagStore) lookupOrVictim(blockAddr int64) (set int64, way, victim int) {
	set = t.geom.SetOf(blockAddr)
	want := t.geom.TagOf(blockAddr)
	base := set * int64(t.geom.Ways)
	for w := 0; w < t.geom.Ways; w++ {
		if t.tag[base+int64(w)] == want {
			return set, w, -1
		}
	}
	if t.lru == nil {
		return set, -1, 0 // one way: it is the victim, valid or not
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

// touch updates replacement state for a hit. A 1-way store has none.
//
//dcalint:noalloc
func (t *tagStore) touch(set int64, way int) {
	if t.lru == nil {
		return
	}
	i := t.idx(set, way)
	if t.journaling {
		t.save(i)
	}
	t.tick++
	t.lru[i] = t.tick
}

// isDirty and putDirty read and write way i's dirty bit.
func (t *tagStore) isDirty(i int64) bool { return t.dbit[i>>6]&(1<<(i&63)) != 0 }

func (t *tagStore) putDirty(i int64, dirty bool) {
	if dirty {
		t.dbit[i>>6] |= 1 << (i & 63)
	} else {
		t.dbit[i>>6] &^= 1 << (i & 63)
	}
}

// dirty returns whether (set, way) holds a dirty block.
func (t *tagStore) dirty(set int64, way int) bool {
	return t.isDirty(t.idx(set, way))
}

// setDirty marks (set, way) dirty.
func (t *tagStore) setDirty(set int64, way int) {
	i := t.idx(set, way)
	if t.journaling {
		t.save(i)
	}
	t.putDirty(i, true)
}

// victim selects the replacement way in set: an invalid way if one
// exists, otherwise the LRU way.
func (t *tagStore) victim(set int64) int {
	if t.lru == nil {
		return 0
	}
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
	return t.tag[i]*t.geom.Sets + set, true, t.isDirty(i)
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
	t.tag[i] = t.geom.TagOf(blockAddr)
	t.putDirty(i, dirty)
	if t.lru != nil {
		t.tick++
		t.lru[i] = t.tick
	}
}

// checkpoint starts journaling writes so rollback can return the store
// to its current state.
func (t *tagStore) checkpoint() {
	t.journaling = true
	t.journal = t.journal[:0]
	t.savedTick = t.tick
}

// save journals way i before a write. A journal entry takes 24 bytes,
// about twice the 12 bytes a set-associative way does, so once it holds
// half as many entries as the store has ways it would outweigh a plain
// copy of the store: it is then dropped, and rollback reports failure.
func (t *tagStore) save(i int64) {
	if len(t.journal) >= len(t.tag)/2 {
		t.journaling = false
		t.journal = nil
		return
	}
	u := undo{i: i, tag: t.tag[i], dirty: t.isDirty(i)}
	if t.lru != nil {
		u.lru = t.lru[i]
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
		t.tag[u.i] = u.tag
		t.putDirty(u.i, u.dirty)
		if t.lru != nil {
			t.lru[u.i] = u.lru
		}
	}
	t.tick = t.savedTick
	t.journal = t.journal[:0]
	t.journaling = false
	return true
}
