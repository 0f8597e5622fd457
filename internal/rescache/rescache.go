// Package rescache is the persistent, content-addressed result cache of
// the evaluation harness. A simulation run is a pure function of its
// config (sim's TestDeterminism and the golden tables pin this down to
// the bit), so a result can be stored on disk keyed by
// config.Config.Hash() and reused by any later process — a warm cache
// makes a full evaluation pass cost approximately zero simulations.
//
// Layout: one binary file per entry, <dir>/<key>.res: a header (magic,
// Format, config.SchemaVersion, a fingerprint of sim.Result's field
// layout, the length-prefixed key), the SHA-256 of the payload, and the
// payload, sim.Result's fields in declaration order (see codec.go). An
// entry is trusted only when its header matches byte for byte, the
// checksum matches, and the payload decodes to exactly its own length —
// anything else (truncation, bit rot, a file from another format,
// schema or Result layout) reads as a miss and is recomputed and
// overwritten, never trusted. Writes go through a temp file that is
// fsynced and then renamed, so concurrent processes sharing a directory
// see whole entries or none, and a machine crash shortly after the
// rename cannot surface a zero-length entry.
//
// Concurrency: within a process, writes to the same key serialize on a
// per-key lock. Across processes there is no coordination: two
// processes missing the same key both simulate it and both Put, which
// is wasted work, never a wrong result — runs are deterministic and
// entry writes are atomic, so the second rename replaces a whole entry
// with an identical whole entry. Open sweeps out temp files abandoned by
// killed processes so they do not accumulate.
//
// Every filesystem operation goes through the cachefs.FS seam, so the
// fault-injection suite can prove those invariants under EIO, ENOSPC,
// torn writes, and simulated crashes.
package rescache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"time"

	"dcasim/internal/cachefs"
	"dcasim/internal/config"
	"dcasim/internal/sim"
)

// FS is the filesystem seam every cache operation goes through; the
// default is the real filesystem (cachefs.OS), and tests substitute
// cachefs.Fault to inject EIO/ENOSPC/torn-write/crash faults.
type FS = cachefs.FS

// Format is the version of the entry layout. Change it when the header
// or the codec changes; a change to sim.Result's fields needs no bump,
// because the layout fingerprint in every header already tells them
// apart. CI keys its restored cache on it, extracting the number from
// this exact line.
const Format = 2

// magic starts every entry file; ext ends its name.
const (
	magic = "dcasimRC"
	ext   = ".res"
)

// prefix is the fixed start of every entry header: magic, Format,
// config.SchemaVersion and the first 8 bytes of the SHA-256 of
// sim.Result's layout.
var prefix = func() []byte {
	b := binary.LittleEndian.AppendUint32([]byte(magic), Format)
	b = binary.LittleEndian.AppendUint32(b, config.SchemaVersion)
	fp := sha256.Sum256(layout(nil, reflect.TypeOf(sim.Result{})))
	return append(b, fp[:8]...)
}()

// staleTempAge is how old an orphaned temp file must be before Open
// deletes it. Fresh temp files belong to live writers mid-Put and must
// survive; anything this old was abandoned by a killed process.
const staleTempAge = time.Hour

// Cache is a directory of content-addressed simulation results.
type Cache struct {
	dir string
	fs  cachefs.FS

	mu   sync.Mutex
	keys map[string]*sync.Mutex // per-key write locks
}

// Open returns a cache rooted at dir, creating the directory if needed.
// It also removes temp files left behind by killed processes: a
// partially-written <key>.tmp* never becomes visible (writes are
// rename-atomic) but would otherwise sit in the directory forever.
func Open(dir string) (*Cache, error) { return OpenFS(dir, cachefs.OS()) }

// OpenFS is Open over an explicit filesystem implementation — the
// fault-injection seam. A nil fsys selects the real filesystem.
func OpenFS(dir string, fsys cachefs.FS) (*Cache, error) {
	if fsys == nil {
		fsys = cachefs.OS()
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("rescache: %w", err)
	}
	c := &Cache{dir: dir, fs: fsys, keys: make(map[string]*sync.Mutex)}
	c.cleanStale(time.Now().Add(-staleTempAge))
	return c, nil
}

// cleanStale removes temp files last modified before cutoff. Best
// effort: a cleanup failure never fails Open — the worst case is the
// status quo ante (a little garbage in the directory).
func (c *Cache) cleanStale(cutoff time.Time) {
	entries, err := c.fs.ReadDir(c.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if !isTemp(name) {
			continue // entry files and anything unrecognized are left alone
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		if info.ModTime().Before(cutoff) {
			c.removeQuiet(filepath.Join(c.dir, name))
		}
	}
}

// isTemp reports whether name is a temp file Put creates: a key, then
// ".tmp", then the decimal digits os.CreateTemp puts for the "*".
func isTemp(name string) bool {
	key, suffix, ok := strings.Cut(name, ".tmp")
	if !ok || !validKey(key) || suffix == "" {
		return false
	}
	for i := 0; i < len(suffix); i++ {
		if suffix[i] < '0' || suffix[i] > '9' {
			return false
		}
	}
	return true
}

// removeQuiet deletes path, tolerating failure by design: every caller
// is cleaning up a temp file whose survival costs at most a later
// sweep, never wrong results.
func (c *Cache) removeQuiet(path string) {
	err := c.fs.Remove(path)
	_ = err // best effort: a file that refuses to die goes stale and is swept later
}

// Dir returns the cache directory.
func (c *Cache) Dir() string { return c.dir }

// Path returns the file an entry for key lives at (whether or not it
// exists yet).
func (c *Cache) Path(key string) string {
	return filepath.Join(c.dir, key+ext)
}

// keyLock returns the per-key mutex, creating it on first use.
func (c *Cache) keyLock(key string) *sync.Mutex {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.keys[key]
	if m == nil {
		m = &sync.Mutex{}
		c.keys[key] = m
	}
	return m
}

// validKey reports whether key is a hex digest — the only file names the
// cache will touch, so a corrupted or hostile key cannot escape the
// cache directory.
func validKey(key string) bool {
	if len(key) == 0 {
		return false
	}
	for i := 0; i < len(key); i++ {
		b := key[i]
		if (b < '0' || b > '9') && (b < 'a' || b > 'f') {
			return false
		}
	}
	return true
}

// header returns the entry header for key: prefix, then the key's
// length as a uint32 and the key.
func header(key string) []byte {
	b := make([]byte, 0, len(prefix)+4+len(key))
	b = append(b, prefix...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(key)))
	return append(b, key...)
}

// Get returns the cached result for key. ok is false on a miss or on any
// integrity failure; the caller recomputes either way.
func (c *Cache) Get(key string) (res sim.Result, ok bool) {
	if !validKey(key) {
		return sim.Result{}, false
	}
	data, err := c.fs.ReadFile(c.Path(key))
	if err != nil {
		return sim.Result{}, false
	}
	hdr := header(key)
	if len(data) < len(hdr)+sha256.Size || !bytes.Equal(data[:len(hdr)], hdr) {
		return sim.Result{}, false
	}
	sum, payload := data[len(hdr):len(hdr)+sha256.Size], data[len(hdr)+sha256.Size:]
	if sha256.Sum256(payload) != [sha256.Size]byte(sum) {
		return sim.Result{}, false
	}
	if res, err = decodeResult(payload); err != nil {
		return sim.Result{}, false
	}
	return res, true
}

// Put stores a result under key, atomically replacing any existing
// entry. Concurrent in-process writers to the same key serialize;
// concurrent processes are already safe through the sync-temp-then-
// rename protocol. The temp file is fsynced before the rename — without
// that barrier a machine crash after the rename could leave a
// zero-length entry under the final name on journaled filesystems — and
// the directory is synced best-effort afterwards so the rename itself
// survives a crash (its loss costs one recompute, never a torn entry).
func (c *Cache) Put(key string, res sim.Result) error {
	if !validKey(key) {
		return fmt.Errorf("rescache: invalid key %q", key)
	}
	lock := c.keyLock(key)
	lock.Lock()
	defer lock.Unlock()
	payload, err := encodeResult(res)
	if err != nil {
		return fmt.Errorf("rescache: encode result: %w", err)
	}
	sum := sha256.Sum256(payload)
	data := append(append(header(key), sum[:]...), payload...)
	tmp, err := c.fs.CreateTemp(c.dir, key+".tmp*")
	if err != nil {
		return fmt.Errorf("rescache: %w", err)
	}
	_, werr := tmp.Write(data)
	var serr error
	if werr == nil {
		serr = tmp.Sync()
	}
	cerr := tmp.Close()
	if err := firstErr(werr, serr, cerr); err != nil {
		c.removeQuiet(tmp.Name())
		return fmt.Errorf("rescache: write entry: %w", err)
	}
	if err := c.fs.Rename(tmp.Name(), c.Path(key)); err != nil {
		c.removeQuiet(tmp.Name())
		return fmt.Errorf("rescache: %w", err)
	}
	derr := c.fs.SyncDir(c.dir)
	_ = derr // best effort: an unsynced rename costs at most a recompute after a machine crash
	return nil
}

// firstErr returns the first non-nil error.
func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
