package rescache

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dcasim/internal/config"
	"dcasim/internal/sim"
)

func sampleResult() sim.Result {
	res := sim.Result{
		Benchmarks:      []string{"mcf", "lbm"},
		IPC:             []float64{0.731234567891234, 1.25},
		FinishNS:        []float64{123456.75, 98765.5},
		L2MissLatencyNS: 87.348723,
		L2MissRate:      0.25,
		MainMemReads:    9876543,
	}
	res.DCache.ReadReqs = 42
	res.DRAM.Accesses = 77
	res.Ctrl.PRIssued = 11
	return res
}

func TestPutGetRoundTrip(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := config.Test().Hash()
	want := sampleResult()
	if err := c.Put(key, want); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(key)
	if !ok {
		t.Fatal("entry not found after Put")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, want)
	}
	if _, ok := c.Get(strings.Repeat("ab", 32)); ok {
		t.Fatal("hit for a key never stored")
	}
}

func TestCorruptEntryIsAMiss(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := config.Test().Hash()
	if err := c.Put(key, sampleResult()); err != nil {
		t.Fatal(err)
	}

	corrupt := func(name string, mutate func([]byte) []byte) {
		t.Helper()
		data, err := os.ReadFile(c.Path(key))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(c.Path(key), mutate(data), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.Get(key); ok {
			t.Errorf("%s: corrupted entry was trusted", name)
		}
		if err := c.Put(key, sampleResult()); err != nil { // restore
			t.Fatal(err)
		}
	}

	corrupt("truncated", func(b []byte) []byte { return b[:len(b)/2] })
	corrupt("garbage", func(b []byte) []byte { return []byte("not json at all") })
	corrupt("bit flip in payload", func(b []byte) []byte {
		// Flip a digit inside the result payload: the envelope still
		// decodes but the checksum must catch the altered bytes.
		s := strings.Replace(string(b), "9876543", "9876542", 1)
		if s == string(b) {
			t.Fatal("payload marker not found")
		}
		return []byte(s)
	})
	corrupt("wrong key", func(b []byte) []byte {
		other := config.Bench().Hash()
		return []byte(strings.ReplaceAll(string(b), key, other))
	})
	corrupt("old schema", func(b []byte) []byte {
		return []byte(strings.Replace(string(b), `"schema": 1`, `"schema": 0`, 1))
	})

	// After all that vandalism a fresh Put must make the entry readable
	// again — recompute-and-overwrite, never trust.
	if _, ok := c.Get(key); !ok {
		t.Fatal("entry unreadable after re-Put")
	}
}

func TestInvalidKeysRejected(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"", "../escape", "ABCDEF", "deadbeef/../../etc"} {
		if err := c.Put(key, sim.Result{}); err == nil {
			t.Errorf("Put accepted invalid key %q", key)
		}
		if _, ok := c.Get(key); ok {
			t.Errorf("Get accepted invalid key %q", key)
		}
	}
}

// TestEntryEnvelopeShape pins the on-disk format documented in the
// README: schema, key, sha256, result.
func TestEntryEnvelopeShape(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := config.Test().Hash()
	if err := c.Put(key, sampleResult()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(c.Path(key))
	if err != nil {
		t.Fatal(err)
	}
	var e struct {
		Schema int             `json:"schema"`
		Key    string          `json:"key"`
		SHA256 string          `json:"sha256"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatal(err)
	}
	if e.Schema != config.SchemaVersion || e.Key != key || len(e.SHA256) != 64 || len(e.Result) == 0 {
		t.Fatalf("unexpected envelope: %+v", e)
	}
}

// TestOpenCleansStaleTemp: a temp file left by a killed process must be
// swept — not accumulate forever — while fresh temp files (a live writer
// mid-Put), unrelated files, and real entries survive. Open sweeps temp
// files older than staleTempAge; the test drives the same sweep with a
// cutoff between the two temp files' mtimes instead of waiting an hour.
func TestOpenCleansStaleTemp(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := config.Test().Hash()
	if err := c.Put(key, sampleResult()); err != nil {
		t.Fatal(err)
	}

	mk := func(name string) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	staleTmp := mk(key + ".tmp123456")
	unrelated := mk("README.txt")     // unrecognized names are never touched
	time.Sleep(50 * time.Millisecond) // clear the filesystem's mtime granularity
	cutoff := time.Now()
	time.Sleep(50 * time.Millisecond)
	freshTmp := mk(key + ".tmp654321")

	// Everything is younger than staleTempAge: Open must keep it all.
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(staleTmp); err != nil {
		t.Fatalf("Open swept a temp file younger than staleTempAge: %v", err)
	}

	c.cleanStale(cutoff)
	if _, err := os.Stat(staleTmp); !os.IsNotExist(err) {
		t.Errorf("%s survived the sweep, want it removed", filepath.Base(staleTmp))
	}
	for _, p := range []string{freshTmp, unrelated, c.Path(key)} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("%s was swept, want it kept: %v", filepath.Base(p), err)
		}
	}
	if _, ok := c.Get(key); !ok {
		t.Fatal("entry unreadable after cleanup")
	}
}

// TestConcurrentPutsSameKey: hammering one key from many goroutines must
// leave a readable, checksum-valid entry (per-key locking plus atomic
// rename).
func TestConcurrentPutsSameKey(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := config.Test().Hash()
	want := sampleResult()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if err := c.Put(key, want); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	got, ok := c.Get(key)
	if !ok {
		t.Fatal("entry unreadable after concurrent Puts")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("concurrent Puts corrupted the entry: got %+v", got)
	}
}
