package dcache

import (
	"reflect"
	"testing"
)

func smallTags(t *testing.T) *tagStore {
	t.Helper()
	g, err := NewGeometry(SetAssoc, 1<<20, paperDRAM()) // 1024 sets x 15 ways
	if err != nil {
		t.Fatal(err)
	}
	return newTagStore(g, nil)
}

// snapshot copies a store's arrays and clock for comparison.
func snapshot(ts *tagStore) ([]int64, []bool, []uint32, uint32) {
	return append([]int64(nil), ts.tag...), append([]bool(nil), ts.dbit...), append([]uint32(nil), ts.lru...), ts.tick
}

// TestTagJournalRollback: rollback undoes every write since checkpoint
// exactly, and a journal that outgrows half the ways is dropped, so
// rollback then reports failure.
func TestTagJournalRollback(t *testing.T) {
	ts := smallTags(t)
	write := func(n int) {
		for i := 0; i < n; i++ {
			addr := int64(i * 7919)
			set, way, vw := ts.lookupOrVictim(addr)
			if way >= 0 {
				ts.setDirty(set, way)
				ts.touch(set, way)
			} else {
				ts.install(addr, set, vw, i%3 == 0)
			}
		}
	}
	write(5000) // warm state
	tag, dbit, lru, tick := snapshot(ts)
	ts.checkpoint()
	write(3000)
	if !ts.rollback() {
		t.Fatal("rollback of a small journal failed")
	}
	gotTag, gotDbit, gotLRU, gotTick := snapshot(ts)
	if !reflect.DeepEqual(gotTag, tag) || !reflect.DeepEqual(gotDbit, dbit) || !reflect.DeepEqual(gotLRU, lru) || gotTick != tick {
		t.Fatal("rollback did not restore the checkpointed store")
	}
	ts.checkpoint()
	write(len(ts.tag))
	if ts.rollback() {
		t.Fatal("rollback succeeded after the journal outgrew the store")
	}
}

// TestTagStoreReuse: a store built over a spare's arrays starts empty.
func TestTagStoreReuse(t *testing.T) {
	old := smallTags(t)
	old.install(42, old.geom.SetOf(42), 3, true)
	ts := newTagStore(old.geom, old)
	if &ts.tag[0] != &old.tag[0] {
		t.Fatal("the spare's arrays were not reused")
	}
	if _, way := ts.lookup(42); way >= 0 || ts.dbit[ts.idx(old.geom.SetOf(42), 3)] || ts.tick != 0 {
		t.Fatal("a reused store kept the spare's contents")
	}
}

func TestTagLookupInstall(t *testing.T) {
	ts := smallTags(t)
	addr := int64(12345)
	if _, way := ts.lookup(addr); way != -1 {
		t.Fatal("empty store reported a hit")
	}
	set := ts.geom.SetOf(addr)
	ts.install(addr, set, 3, false)
	s, way := ts.lookup(addr)
	if s != set || way != 3 {
		t.Fatalf("lookup found (%d,%d), want (%d,3)", s, way, set)
	}
}

func TestTagAliasesDistinguished(t *testing.T) {
	ts := smallTags(t)
	a := int64(100)
	alias := a + ts.geom.Sets // same set, different tag
	set := ts.geom.SetOf(a)
	ts.install(a, set, 0, false)
	if _, way := ts.lookup(alias); way != -1 {
		t.Fatal("alias with different tag hit")
	}
}

func TestVictimPrefersInvalid(t *testing.T) {
	ts := smallTags(t)
	set := int64(7)
	ts.install(int64(7), set, 0, false)
	if vw := ts.victim(set); vw == 0 {
		t.Fatal("victim chose an occupied way while invalid ways exist")
	}
}

func TestVictimLRU(t *testing.T) {
	ts := smallTags(t)
	set := int64(7)
	// Fill all ways; way 0 becomes LRU unless touched.
	for w := 0; w < ts.geom.Ways; w++ {
		ts.install(int64(7)+int64(w)*ts.geom.Sets, set, w, false)
	}
	ts.touch(set, 0) // refresh way 0; way 1 is now LRU
	if vw := ts.victim(set); vw != 1 {
		t.Fatalf("victim way %d, want 1 (LRU)", vw)
	}
}

func TestDirtyTracking(t *testing.T) {
	ts := smallTags(t)
	set := int64(3)
	ts.install(int64(3), set, 0, false)
	if ts.dirty(set, 0) {
		t.Fatal("clean install reported dirty")
	}
	ts.setDirty(set, 0)
	if !ts.dirty(set, 0) {
		t.Fatal("setDirty did not stick")
	}
	addr, valid, dirty := ts.victimInfo(set, 0)
	if addr != 3 || !valid || !dirty {
		t.Fatalf("victimInfo = (%d,%v,%v), want (3,true,true)", addr, valid, dirty)
	}
}

func TestVictimInfoInvalid(t *testing.T) {
	ts := smallTags(t)
	if _, valid, _ := ts.victimInfo(0, 5); valid {
		t.Fatal("empty way reported valid")
	}
}

func TestInstallReplaces(t *testing.T) {
	ts := smallTags(t)
	set := int64(9)
	ts.install(int64(9), set, 2, true)
	repl := int64(9) + 4*ts.geom.Sets
	ts.install(repl, set, 2, false)
	if _, way := ts.lookup(int64(9)); way != -1 {
		t.Fatal("replaced block still present")
	}
	if _, way := ts.lookup(repl); way != 2 {
		t.Fatal("replacement not installed")
	}
	if ts.dirty(set, 2) {
		t.Fatal("dirtiness leaked across install")
	}
}
