package cache

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

func mustNew(t *testing.T, size int64, block, ways int) *Cache {
	t.Helper()
	c, err := New(size, block, ways, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 64, 2, nil); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := New(100, 64, 2, nil); err == nil {
		t.Error("non-divisible size accepted")
	}
	if _, err := New(64, 64, 2, nil); err == nil {
		t.Error("a cache of one block over two ways accepted")
	}
	if _, err := New(64, 64, 0, nil); err == nil {
		t.Error("zero ways accepted")
	}
	if _, err := New(4*17*64, 64, 17, nil); err == nil {
		t.Error("more ways than an order word holds accepted")
	}
	if _, err := New(4*MaxWays*64, 64, MaxWays, nil); err != nil {
		t.Errorf("%d ways rejected: %v", MaxWays, err)
	}
	c := mustNew(t, 32<<10, 64, 2)
	if c.Sets() != 256 || c.Ways() != 2 {
		t.Fatalf("32KB/2way: %d sets x %d ways, want 256x2", c.Sets(), c.Ways())
	}
}

// TestNewOverSpare: a cache built over a spare's array reuses it and
// starts empty, whatever the spare held.
func TestNewOverSpare(t *testing.T) {
	old := mustNew(t, 2048, 64, 2)
	old.Access(5, true)
	c, err := New(1024, 64, 2, old)
	if err != nil {
		t.Fatal(err)
	}
	if &c.words[0] != &old.words[0] {
		t.Fatal("the spare's array was not reused")
	}
	if p, _ := c.Probe(5); p || slices.ContainsFunc(c.words, func(x uint64) bool { return x != 0 }) || c.Hits+c.Misses != 0 {
		t.Fatal("a cache built over a spare kept its contents")
	}
	if r := c.Access(5, false); r.Hit || r.VictimValid {
		t.Fatalf("first access to a reused cache: %+v, want a miss into an empty way", r)
	}
}

// TestCopyTo: a copy carries contents, replacement state and counters,
// lands in the given cache's array, and is independent of the original.
func TestCopyTo(t *testing.T) {
	c := mustNew(t, 1024, 64, 2)
	c.Access(0, true)
	c.Access(8, false)
	dst := mustNew(t, 1024, 64, 2)
	arr := &dst.words[0]
	cp := c.CopyTo(dst)
	if cp != dst || &cp.words[0] != arr {
		t.Fatal("CopyTo did not copy into the given cache's array")
	}
	if present, dirty := cp.Probe(0); !present || !dirty || cp.Misses != 2 {
		t.Fatal("the copy lost contents or counters")
	}
	cp.Access(16, false) // evicts 0 from the copy only
	if present, _ := c.Probe(0); !present {
		t.Fatal("an access to the copy changed the original")
	}
	if fresh := c.CopyTo(nil); !reflect.DeepEqual(fresh, c) {
		t.Fatal("a copy into nil differs from the original")
	}
}

func TestHitMiss(t *testing.T) {
	c := mustNew(t, 1024, 64, 2) // 8 sets, 2 ways
	if r := c.Access(5, false); r.Hit {
		t.Fatal("cold access hit")
	}
	if r := c.Access(5, false); !r.Hit {
		t.Fatal("second access missed")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("counters %d/%d", c.Hits, c.Misses)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := mustNew(t, 1024, 64, 2) // 8 sets; addresses =set (mod 8) share a set
	c.Access(0, false)           // set 0
	c.Access(8, false)           // set 0, second way
	c.Access(0, false)           // refresh 0
	r := c.Access(16, false)     // evicts 8
	if r.Hit || !r.VictimValid || r.VictimAddr != 8 {
		t.Fatalf("expected victim 8, got %+v", r)
	}
	if p, _ := c.Probe(0); !p {
		t.Fatal("MRU block evicted")
	}
}

func TestDirtyVictim(t *testing.T) {
	c := mustNew(t, 1024, 64, 2)
	c.Access(0, true) // dirty
	c.Access(8, false)
	r := c.Access(16, false)
	if !r.VictimValid || r.VictimAddr != 0 || !r.VictimDirty {
		t.Fatalf("dirty victim not reported: %+v", r)
	}
}

func TestWriteMarksDirty(t *testing.T) {
	c := mustNew(t, 1024, 64, 2)
	c.Access(3, false)
	if _, d := c.Probe(3); d {
		t.Fatal("clean block reported dirty")
	}
	c.Access(3, true)
	if _, d := c.Probe(3); !d {
		t.Fatal("written block not dirty")
	}
}

func TestClean(t *testing.T) {
	c := mustNew(t, 1024, 64, 2)
	c.Access(3, true)
	if !c.Clean(3) {
		t.Fatal("Clean did not report the block was dirty")
	}
	if _, d := c.Probe(3); d {
		t.Fatal("block still dirty after Clean")
	}
	if c.Clean(3) {
		t.Fatal("Clean on a clean block reported dirty")
	}
	if c.Clean(999) {
		t.Fatal("Clean on an absent block reported dirty")
	}
}

func TestProbeDoesNotTouch(t *testing.T) {
	c := mustNew(t, 1024, 64, 2)
	c.Access(0, false)
	c.Access(8, false)
	// Probing 0 must NOT refresh it.
	c.Probe(0)
	r := c.Access(16, false)
	if r.VictimAddr != 0 {
		t.Fatalf("probe changed LRU state; victim %d, want 0", r.VictimAddr)
	}
}

// TestAgainstReferenceModel drives the cache and a brute-force reference
// (per-set LRU lists) with random traffic and requires identical
// hit/miss/victim behaviour — a property check of the replacement logic.
func TestAgainstReferenceModel(t *testing.T) {
	const (
		sets  = 16
		ways  = 4
		block = 64
	)
	c := mustNew(t, sets*ways*block, block, ways)
	type line struct {
		addr  int64
		dirty bool
	}
	ref := make([][]line, sets) // MRU first

	rnd := rand.New(rand.NewSource(99))
	for op := 0; op < 20_000; op++ {
		addr := int64(rnd.Intn(256))
		write := rnd.Intn(3) == 0
		set := addr % sets

		// Reference behaviour.
		refHit := false
		var refVictim line
		refVictimValid := false
		s := ref[set]
		for i, ln := range s {
			if ln.addr == addr {
				refHit = true
				ln.dirty = ln.dirty || write
				s = append(append([]line{ln}, s[:i]...), s[i+1:]...)
				break
			}
		}
		if !refHit {
			if len(s) == ways {
				refVictim = s[ways-1]
				refVictimValid = true
				s = s[:ways-1]
			}
			s = append([]line{{addr: addr, dirty: write}}, s...)
		}
		ref[set] = s

		got := c.Access(addr, write)
		if got.Hit != refHit {
			t.Fatalf("op %d addr %d: hit=%v, reference says %v", op, addr, got.Hit, refHit)
		}
		if !refHit {
			if got.VictimValid != refVictimValid {
				t.Fatalf("op %d: victimValid=%v, reference %v", op, got.VictimValid, refVictimValid)
			}
			if refVictimValid && (got.VictimAddr != refVictim.addr || got.VictimDirty != refVictim.dirty) {
				t.Fatalf("op %d: victim %d/%v, reference %d/%v",
					op, got.VictimAddr, got.VictimDirty, refVictim.addr, refVictim.dirty)
			}
		}
	}
}

func TestMissRate(t *testing.T) {
	c := mustNew(t, 1024, 64, 2)
	if c.MissRate() != 0 {
		t.Fatal("empty cache should report 0 miss rate")
	}
	c.Access(1, false)
	c.Access(1, false)
	if got := c.MissRate(); got != 0.5 {
		t.Fatalf("miss rate %v, want 0.5", got)
	}
	c.ResetStats()
	if c.Hits != 0 || c.Misses != 0 {
		t.Fatal("ResetStats left counters")
	}
}
