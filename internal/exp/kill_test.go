package exp

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dcasim/internal/config"
	"dcasim/internal/rescache"
)

// killChildEnv points a re-executed child test process at the shared
// cache directory; empty (the normal case) skips the child body.
const killChildEnv = "DCASIM_KILL_CHILD_DIR"

// killSweepSpec is the sweep the killed child and the survivor share:
// one seed axis of distinct points, so progress is simply "entries in
// the cache directory".
func killSweepSpec() SweepSpec {
	axis := SweepAxis{Name: "seed"}
	for seed := 101; seed <= 116; seed++ {
		axis.Values = append(axis.Values, SweepPoint{
			Label: fmt.Sprint(seed),
			Set:   raw(`{"Seed":%d}`, seed),
		})
	}
	return SweepSpec{
		Schema:  config.SchemaVersion,
		Name:    "kill-recovery",
		Scale:   "test",
		Base:    raw(`{"Benchmarks":["mcf","lbm","libquantum","omnetpp"]}`),
		Axes:    []SweepAxis{axis},
		Metrics: []string{"totalNS"},
	}
}

// TestKillRecoveryChild is the victim body of TestKillRecovery, run in
// a separate process (the parent re-executes the test binary with
// killChildEnv set) so it can be SIGKILLed mid-sweep with no chance to
// clean up. In a normal test run it skips immediately.
func TestKillRecoveryChild(t *testing.T) {
	dir := os.Getenv(killChildEnv)
	if dir == "" {
		t.Skip("child body; driven by TestKillRecovery")
	}
	cache, err := rescache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunSweep(killSweepSpec(), SweepOpts{Workers: 2, Cache: cache}); err != nil {
		t.Fatal(err)
	}
}

// entryExt is the extension of a result-cache entry file. It is taken
// from Cache.Path, which needs no open cache, so that the tests follow
// any change of the on-disk format instead of silently finding nothing.
var entryExt = filepath.Ext((&rescache.Cache{}).Path(config.Test().Hash()))

// entryNames lists dir's final entry files (<key><entryExt>).
func entryNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), entryExt) {
			names = append(names, e.Name())
		}
	}
	return names
}

// TestKillRecovery is the crash-safety integration test: a child
// process is SIGKILLed in the middle of a sweep, and a survivor sharing
// the cache directory must then complete the sweep, reusing every entry
// the victim persisted and simulating exactly the missing ones. Entries
// persist because each Put is an fsynced temp file renamed into place,
// so the kill can orphan a temp file but never a torn entry.
func TestKillRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills a child test process")
	}

	// Kill the child once it has persisted at least two entries; if it
	// finished the whole sweep in the instant before the kill landed,
	// retry with a fresh directory rather than flake.
	var dir string
	var pre int
	for attempt := 1; ; attempt++ {
		dir = t.TempDir()
		cmd := exec.Command(os.Args[0], "-test.run=^TestKillRecoveryChild$", "-test.count=1", "-test.v")
		cmd.Env = append(os.Environ(), killChildEnv+"="+dir)
		out := &strings.Builder{}
		cmd.Stdout, cmd.Stderr = out, out
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		waited := make(chan error, 1)
		go func() { waited <- cmd.Wait() }()

		deadline := time.Now().Add(60 * time.Second)
		killed := false
		for !killed {
			select {
			case err := <-waited:
				t.Logf("attempt %d: child exited before the kill (%v); output:\n%s", attempt, err, out)
			case <-time.After(2 * time.Millisecond):
				if len(entryNames(t, dir)) >= 2 {
					if err := cmd.Process.Kill(); err != nil {
						t.Fatal(err)
					}
					<-waited
					killed = true
					continue
				}
				if time.Now().Before(deadline) {
					continue
				}
				t.Fatalf("attempt %d: child never persisted 2 entries; output:\n%s", attempt, out)
			}
			break
		}
		if killed {
			pre = len(entryNames(t, dir))
			if pre < 16 {
				break
			}
		}
		if attempt >= 3 {
			t.Fatal("child completed the sweep before every kill attempt")
		}
	}
	t.Logf("victim killed with %d entries persisted", pre)

	cache, err := rescache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tbl, r, err := RunSweep(killSweepSpec(), SweepOpts{Workers: 2, Cache: cache})
	if err != nil {
		t.Fatalf("survivor sweep failed: %v", err)
	}
	if tbl == nil {
		t.Fatal("survivor sweep returned no table")
	}
	if got := r.CacheHits(); got != int64(pre) {
		t.Errorf("survivor reused %d of the victim's %d entries", got, pre)
	}
	if got := r.SimRuns(); got != int64(16-pre) {
		t.Errorf("survivor simulated %d runs, want exactly the %d missing", got, 16-pre)
	}
	// A temp file the kill orphaned may remain (Open sweeps it once it
	// is an hour old), but never under a final entry name: every entry
	// must be a whole, checksum-valid result.
	names := entryNames(t, dir)
	for _, name := range names {
		if strings.Contains(name, ".tmp") {
			t.Errorf("temp file %s sits under a final entry name", name)
		}
		if _, ok := cache.Get(strings.TrimSuffix(name, entryExt)); !ok {
			t.Errorf("entry %s is not a valid result", name)
		}
	}
	if len(names) != 16 {
		t.Errorf("%d entries after the survivor's sweep, want 16", len(names))
	}
}
