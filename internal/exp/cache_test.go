package exp

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"dcasim/internal/config"
	"dcasim/internal/rescache"
	"dcasim/internal/workload"
)

// cachedRunner builds a fresh runner (fresh in-memory memo) over the
// given persistent cache directory.
func cachedRunner(t *testing.T, dir string, nmix int) *Runner {
	t.Helper()
	c, err := rescache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(config.Test(), workload.TableI()[:nmix], 2)
	r.SetCache(c)
	return r
}

// evaluate runs a representative slice of the evaluation — a speedup
// figure (which pulls in alone runs), a metric figure, and an extension
// study — and returns the concatenated rendered tables.
func evaluate(t *testing.T, r *Runner) string {
	t.Helper()
	var b strings.Builder
	for _, name := range []string{"fig8", "fig14", "bear"} {
		tbl, err := r.Figure(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b.WriteString(tbl.String())
	}
	if err := r.CacheErr(); err != nil {
		t.Fatalf("cache write failed: %v", err)
	}
	return b.String()
}

// TestPersistentCacheMakesSecondPassFree is the headline cache property:
// a second evaluation pass by a brand-new runner (a brand-new process,
// as far as the cache can tell) against a warm directory must execute
// zero simulations yet render byte-identical tables.
func TestPersistentCacheMakesSecondPassFree(t *testing.T) {
	dir := t.TempDir()

	cold := cachedRunner(t, dir, 2)
	first := evaluate(t, cold)
	if cold.SimRuns() == 0 {
		t.Fatal("cold pass executed no simulations — cache dir was not empty?")
	}

	warm := cachedRunner(t, dir, 2)
	second := evaluate(t, warm)
	if n := warm.SimRuns(); n != 0 {
		t.Fatalf("warm pass executed %d simulations, want 0", n)
	}
	if first != second {
		t.Fatalf("warm-cache tables diverged:\n--- cold\n%s\n--- warm\n%s", first, second)
	}
}

// TestCorruptCacheEntryIsRecomputed: a damaged entry must be silently
// recomputed (and rewritten), never trusted, and the tables must come
// out identical to the undamaged pass.
func TestCorruptCacheEntryIsRecomputed(t *testing.T) {
	dir := t.TempDir()
	first := evaluate(t, cachedRunner(t, dir, 1))

	entries := entryNames(t, dir)
	if len(entries) == 0 {
		t.Fatal("no cache entries written")
	}
	victim := filepath.Join(dir, entries[len(entries)/2])
	if err := os.WriteFile(victim, []byte(`{"schema":1,"key":"bogus","result":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}

	r := cachedRunner(t, dir, 1)
	second := evaluate(t, r)
	if n := r.SimRuns(); n != 1 {
		t.Fatalf("executed %d simulations after corrupting one entry, want exactly 1", n)
	}
	if first != second {
		t.Fatalf("tables diverged after recompute:\n--- before\n%s\n--- after\n%s", first, second)
	}

	// The recompute must also have repaired the entry on disk.
	r2 := cachedRunner(t, dir, 1)
	evaluate(t, r2)
	if n := r2.SimRuns(); n != 0 {
		t.Fatalf("corrupted entry was not rewritten: third pass executed %d simulations", n)
	}
}

// TestTraceRunsBypassCache: the config hash covers the trace *path*,
// not the file's contents, and a recording is a side effect — so
// record/replay runs must never be served from or stored in the
// persistent cache.
func TestTraceRunsBypassCache(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(t.TempDir(), "rec.dct")
	noEntries := func(when string) {
		t.Helper()
		if entries := entryNames(t, dir); len(entries) != 0 {
			t.Fatalf("%s: trace run left %d cache entries", when, len(entries))
		}
	}

	rec := config.Test()
	rec.Benchmarks = []string{"mcf"}
	rec.RecordPath = tracePath
	if _, err := cachedRunner(t, dir, 1).Run(rec); err != nil {
		t.Fatal(err)
	}
	noEntries("after record")
	if _, err := os.Stat(tracePath); err != nil {
		t.Fatalf("recording not written: %v", err)
	}

	rep := config.Test()
	rep.TracePath = tracePath
	for pass := 1; pass <= 2; pass++ {
		r := cachedRunner(t, dir, 1)
		if _, err := r.Run(rep); err != nil {
			t.Fatal(err)
		}
		if r.SimRuns() != 1 {
			t.Fatalf("replay pass %d executed %d simulations, want 1 (served stale trace result from cache?)", pass, r.SimRuns())
		}
	}
	noEntries("after replay")
}

// TestCacheSharedAcrossScenarios: two runners with overlapping but
// different workloads share the overlapping runs through the directory.
func TestCacheSharedAcrossScenarios(t *testing.T) {
	dir := t.TempDir()
	one := cachedRunner(t, dir, 1)
	if _, err := one.Figure("fig8"); err != nil {
		t.Fatal(err)
	}
	// Mix 2 adds new runs but mix 1's runs (and its alone runs) are warm.
	two := cachedRunner(t, dir, 2)
	if _, err := two.Figure("fig8"); err != nil {
		t.Fatal(err)
	}
	solo := NewRunner(config.Test(), workload.TableI()[1:2], 2)
	if _, err := solo.Figure("fig8"); err != nil {
		t.Fatal(err)
	}
	if two.SimRuns() >= one.SimRuns()+solo.SimRuns() {
		t.Fatalf("overlapping runs not shared: %d + %d vs %d new", one.SimRuns(), solo.SimRuns(), two.SimRuns())
	}
}

// TestConcurrentHandlesDuplicateWorkNeverWrongResults is the property
// the cache's lack of cross-process coordination rests on: two runners
// on two separate cache handles (two processes, as far as the directory
// can tell) that render Fig. 8 at the same time may both simulate a
// missing key and both Put it, but each must render exactly the table a
// cache-less runner does, and the directory they leave must be warm.
func TestConcurrentHandlesDuplicateWorkNeverWrongResults(t *testing.T) {
	dir := t.TempDir()
	want, err := NewRunner(config.Test(), workload.TableI()[:1], 2).Figure("fig8")
	if err != nil {
		t.Fatal(err)
	}
	runners := []*Runner{cachedRunner(t, dir, 1), cachedRunner(t, dir, 1)}
	got := make([]string, len(runners))
	errs := make([]error, len(runners))
	var wg sync.WaitGroup
	for i, r := range runners {
		wg.Add(1)
		go func(i int, r *Runner) {
			defer wg.Done()
			tbl, err := r.Figure("fig8")
			if err == nil {
				got[i], err = tbl.String(), r.CacheErr()
			}
			errs[i] = err
		}(i, r)
	}
	wg.Wait()
	for i := range runners {
		if errs[i] != nil {
			t.Fatalf("runner %d: %v", i, errs[i])
		}
		if got[i] != want.String() {
			t.Fatalf("runner %d diverged from the cache-less table:\n--- got\n%s\n--- want\n%s", i, got[i], want)
		}
	}
	warm := cachedRunner(t, dir, 1)
	if _, err := warm.Figure("fig8"); err != nil {
		t.Fatal(err)
	}
	if n := warm.SimRuns(); n != 0 {
		t.Fatalf("third runner on the warm directory executed %d simulations, want 0", n)
	}
}
