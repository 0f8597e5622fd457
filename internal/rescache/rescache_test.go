package rescache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
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

// entryParts is an entry file split at the offsets the README
// documents: magic (8 bytes), format and schema (uint32 each), layout
// fingerprint (8), key length (uint32), key, SHA-256 (32), payload. The
// tests parse entries here, independently of the package's header
// code.
type entryParts struct {
	magic          string
	format, schema uint32
	fingerprint    []byte
	key            string
	sumAt          int // offset of the SHA-256
	sum, payload   []byte
}

// splitEntry parses data; ok is false when it is too short for its
// fields.
func splitEntry(data []byte) (e entryParts, ok bool) {
	le := binary.LittleEndian
	if len(data) < 28 {
		return e, false
	}
	n := uint64(le.Uint32(data[24:]))
	if uint64(len(data)) < 28+n+sha256.Size {
		return e, false
	}
	sumAt := 28 + int(n)
	return entryParts{
		magic:       string(data[:8]),
		format:      le.Uint32(data[8:]),
		schema:      le.Uint32(data[12:]),
		fingerprint: data[16:24],
		key:         string(data[28:sumAt]),
		sumAt:       sumAt,
		sum:         data[sumAt : sumAt+sha256.Size],
		payload:     data[sumAt+sha256.Size:],
	}, true
}

// resealed returns data with its payload replaced and the SHA-256
// recomputed, so that only checks past the checksum can reject it.
func resealed(t *testing.T, data, payload []byte) []byte {
	t.Helper()
	e, ok := splitEntry(data)
	if !ok {
		t.Fatal("entry too short to split")
	}
	sum := sha256.Sum256(payload)
	out := append(append([]byte(nil), data[:e.sumAt]...), sum[:]...)
	return append(out, payload...)
}

// jsonEntry is an entry as builds before Format 2 wrote it, to
// <key>.json: an indented envelope {schema, key, sha256, result} whose
// checksum covers the compact result.
func jsonEntry(t *testing.T, key string, res sim.Result) []byte {
	t.Helper()
	payload, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(payload)
	data, err := json.MarshalIndent(struct {
		Schema int             `json:"schema"`
		Key    string          `json:"key"`
		SHA256 string          `json:"sha256"`
		Result json.RawMessage `json:"result"`
	}{config.SchemaVersion, key, hex.EncodeToString(sum[:]), payload}, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

// TestCorruptEntryIsAMiss: every way an entry can differ from what Put
// wrote for this key, this build and this sim.Result is a miss, and a
// Put makes the key readable again.
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
		if err := os.WriteFile(c.Path(key), mutate(append([]byte(nil), data...)), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.Get(key); ok {
			t.Errorf("%s: corrupted entry was trusted", name)
		}
		if err := c.Put(key, sampleResult()); err != nil { // restore
			t.Fatal(err)
		}
	}
	le := binary.LittleEndian

	corrupt("truncated", func(b []byte) []byte { return b[:len(b)/2] })
	corrupt("garbage", func(b []byte) []byte { return []byte("not an entry at all") })
	corrupt("bit flip in payload", func(b []byte) []byte {
		b[len(b)-1] ^= 0x01
		return b
	})
	corrupt("bit flip in checksum", func(b []byte) []byte {
		e, _ := splitEntry(b)
		b[e.sumAt] ^= 0x01
		return b
	})
	corrupt("wrong key", func(b []byte) []byte {
		return bytes.Replace(b, []byte(key), []byte(config.Bench().Hash()), 1)
	})
	corrupt("wrong magic", func(b []byte) []byte {
		b[0] ^= 0x20
		return b
	})
	corrupt("wrong format", func(b []byte) []byte {
		le.PutUint32(b[8:], Format+1)
		return b
	})
	corrupt("old schema", func(b []byte) []byte {
		le.PutUint32(b[12:], config.SchemaVersion-1)
		return b
	})
	corrupt("wrong fingerprint", func(b []byte) []byte {
		b[16] ^= 0x01
		return b
	})
	corrupt("trailing byte", func(b []byte) []byte {
		e, _ := splitEntry(b)
		return resealed(t, b, append(e.payload[:len(e.payload):len(e.payload)], 0))
	})
	corrupt("short payload", func(b []byte) []byte {
		e, _ := splitEntry(b)
		return resealed(t, b, e.payload[:len(e.payload)-1])
	})
	corrupt("JSON entry of an older build", func([]byte) []byte {
		return jsonEntry(t, key, sampleResult())
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
// README: <key>.res holding magic, Format, schema, layout fingerprint,
// length-prefixed key, the payload's SHA-256, and the payload.
func TestEntryEnvelopeShape(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := config.Test().Hash()
	if got := filepath.Base(c.Path(key)); got != key+".res" {
		t.Fatalf("entry file %s, want %s.res", got, key)
	}
	want := sampleResult()
	if err := c.Put(key, want); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(c.Path(key))
	if err != nil {
		t.Fatal(err)
	}
	e, ok := splitEntry(data)
	if !ok {
		t.Fatalf("entry of %d bytes does not split", len(data))
	}
	fp := sha256.Sum256(layout(nil, reflect.TypeOf(sim.Result{})))
	if e.magic != "dcasimRC" || e.format != Format || e.schema != config.SchemaVersion ||
		!bytes.Equal(e.fingerprint, fp[:8]) || e.key != key {
		t.Fatalf("unexpected header: %+v", e)
	}
	if sum := sha256.Sum256(e.payload); !bytes.Equal(e.sum, sum[:]) {
		t.Fatal("stored SHA-256 does not cover the payload")
	}
	if got, err := decodeResult(e.payload); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("payload decodes to (%+v, %v), want %+v", got, err, want)
	}
}

// TestFormatExtractable guards the sed pattern CI uses to key its
// restored result cache on the entry format: the constant must stay on
// a single `const Format = N` line in rescache.go.
func TestFormatExtractable(t *testing.T) {
	data, err := os.ReadFile("rescache.go")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^const Format = ([0-9]+)$`).FindSubmatch(data)
	if m == nil {
		t.Fatal("`const Format = N` line not found — CI derives its cache key from it (see .github/workflows/ci.yml)")
	}
	if got := fmt.Sprint(Format); string(m[1]) != got {
		t.Fatalf("extracted %s, constant is %s", m[1], got)
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
	// Unrecognized names are never touched, even when they contain
	// ".tmp": only <key>.tmp<digits> is a temp file of Put's.
	var unrelated []string
	for _, name := range []string{"README.txt", "notes.tmpl", "run.tmp.log", key + ".tmp", key + ".tmp12x", "xyz.tmp1"} {
		unrelated = append(unrelated, mk(name))
	}
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
	for _, p := range append([]string{freshTmp, c.Path(key)}, unrelated...) {
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

// BenchmarkCacheGet is a warm hit on one entry of a 4-core result with
// every field set: file read, header compare, SHA-256 and decode.
func BenchmarkCacheGet(b *testing.B) {
	c, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	key := config.Test().Hash()
	if err := c.Put(key, fullResult(b, 4)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(key); !ok {
			b.Fatal("warm entry missed")
		}
	}
}

// BenchmarkCachePut stores the same entry over and over: encode,
// SHA-256, temp file, fsync, rename and directory sync.
func BenchmarkCachePut(b *testing.B) {
	c, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	key, res := config.Test().Hash(), fullResult(b, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Put(key, res); err != nil {
			b.Fatal(err)
		}
	}
}
