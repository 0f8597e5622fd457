package dcache

import (
	"reflect"
	"testing"
)

func newTags(t *testing.T, org Org) *tagStore {
	t.Helper()
	g, err := NewGeometry(org, 1<<20, paperDRAM()) // SA: 1024 sets x 15 ways; DM: 14336 x 1
	if err != nil {
		t.Fatal(err)
	}
	return newTagStore(g, nil)
}

func smallTags(t *testing.T) *tagStore { return newTags(t, SetAssoc) }

// snapshot copies a store's words for comparison.
func snapshot(ts *tagStore) []uint64 { return append([]uint64(nil), ts.words...) }

// TestTagJournalRollback: in both organizations, rollback undoes every
// write since checkpoint exactly — way words and, in the set-associative
// store, order words — and a journal that outgrows half the ways is
// dropped, so rollback then reports failure. A set-associative set is a
// 16-word record; a direct-mapped one is one word.
func TestTagJournalRollback(t *testing.T) {
	for _, org := range []Org{SetAssoc, DirectMapped} {
		ts := newTags(t, org)
		perSet := int64(1)
		if org == SetAssoc {
			perSet = 16
		}
		if int64(len(ts.words)) != ts.geom.Sets*perSet {
			t.Fatalf("%v: %d words for %d sets", org, len(ts.words), ts.geom.Sets)
		}
		write := func(n int) {
			for i := 0; i < n; i++ {
				addr := int64(i * 7919)
				set := ts.geom.SetOf(addr)
				way, vw := ts.lookupOrVictim(addr, set)
				if way >= 0 {
					ts.setDirty(set, way)
					ts.touch(set, way)
				} else {
					ts.install(addr, set, vw, i%3 == 0)
				}
			}
		}
		write(5000) // warm state
		words := snapshot(ts)
		ts.checkpoint()
		write(3000)
		if !ts.rollback() {
			t.Fatalf("%v: rollback of a small journal failed", org)
		}
		if !reflect.DeepEqual(snapshot(ts), words) {
			t.Fatalf("%v: rollback did not restore the checkpointed store", org)
		}
		ts.checkpoint()
		write(int(ts.geom.Sets) * ts.geom.Ways)
		if ts.rollback() {
			t.Fatalf("%v: rollback succeeded after the journal outgrew the store", org)
		}
	}
}

// TestPackedDirtyBits: every way's dirty bit, bit 63 of its way word, is
// its own across neighbouring ways and set records, an install sets or
// clears it, and a rollback restores bits that were set and bits that
// were cleared.
func TestPackedDirtyBits(t *testing.T) {
	for _, org := range []Org{SetAssoc, DirectMapped} {
		ts := newTags(t, org)
		ways := int64(ts.geom.Ways)
		at := func(i int64) (set int64, way int) { return i / ways, int(i % ways) }
		check := func(what string, want func(i int64) bool) {
			t.Helper()
			for i := int64(56); i < 136; i++ {
				if set, way := at(i); ts.dirty(set, way) != want(i) {
					t.Fatalf("%v %s: way %d dirty=%v", org, what, i, !want(i))
				}
			}
		}
		even := func(i int64) bool { return i%2 == 0 }
		for i := int64(56); i < 136; i++ {
			set, way := at(i)
			ts.install(set+int64(way)*ts.geom.Sets, set, way, even(i))
		}
		check("after install", even)
		ts.checkpoint()
		for i := int64(56); i < 136; i++ {
			set, way := at(i)
			if even(i) {
				ts.install(set+int64(way+1)*ts.geom.Sets, set, way, false)
			} else {
				ts.setDirty(set, way)
			}
		}
		check("after flipping", func(i int64) bool { return !even(i) })
		if !ts.rollback() {
			t.Fatalf("%v: rollback failed", org)
		}
		check("after rollback", even)
	}
}

// TestTagStoreReuse: a store built over a spare's memory starts empty,
// and a spare of the other organization lends it when it is large
// enough: a set-associative store hosts a direct-mapped one and takes
// its memory back, while a direct-mapped store of its own is too small
// for a set-associative one, which allocates.
func TestTagStoreReuse(t *testing.T) {
	old := smallTags(t)
	old.install(42, old.geom.SetOf(42), 3, true)
	ts := newTagStore(old.geom, old)
	if &ts.words[0] != &old.words[0] {
		t.Fatal("the spare's words were not reused")
	}
	if _, way := ts.lookup(42); way >= 0 || ts.dirty(old.geom.SetOf(42), 3) || ts.words[15] != 0 {
		t.Fatal("a reused store kept the spare's contents")
	}

	dmGeom := newTags(t, DirectMapped).geom
	dm := newTagStore(dmGeom, ts)
	if &dm.words[0] != &ts.words[0] || int64(len(dm.words)) != dmGeom.Sets {
		t.Fatal("a direct-mapped store did not reuse a set-associative spare's words")
	}
	if sa := newTagStore(old.geom, dm); &sa.words[0] != &dm.words[0] || int64(len(sa.words)) != 16*old.geom.Sets {
		t.Fatal("a set-associative store did not take back the memory a direct-mapped one borrowed")
	}
	small := newTagStore(dmGeom, nil)
	if sa := newTagStore(old.geom, small); &sa.words[0] == &small.words[0] || int64(len(sa.words)) != 16*old.geom.Sets {
		t.Fatal("a set-associative store over a too small direct-mapped spare did not allocate")
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
