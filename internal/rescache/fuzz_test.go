package rescache

import (
	"bytes"
	"crypto/sha256"
	"os"
	"testing"

	"dcasim/internal/config"
)

// FuzzCacheGet feeds arbitrary bytes to the entry read path. The cache
// shares its directory with other processes, so an entry file can hold
// anything — a torn write, bit rot, output of an older or newer
// version. The contract under fuzzing: Get never panics, and it reports
// a hit only for an entry that independently passes every integrity
// check (magic, format, schema, layout fingerprint, key binding, SHA-256
// of the payload, a payload that is exactly one encoded result);
// everything else is a clean miss.
func FuzzCacheGet(f *testing.F) {
	key := config.Test().Hash()

	// A genuine entry as the structural seed.
	seedCache, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	if err := seedCache.Put(key, sampleResult()); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(seedCache.Path(key))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte("{}"))
	f.Add([]byte(`{"schema":1,"key":"` + key + `","sha256":"00","result":{}}`))
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x01
	f.Add(flipped)

	// The fingerprint is the one input the oracle cannot derive from the
	// documented layout alone, so it takes it from the genuine entry.
	want, ok := splitEntry(valid)
	if !ok {
		f.Fatal("genuine entry does not split")
	}

	c, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(c.Path(key), data, 0o644); err != nil {
			t.Fatal(err)
		}
		res, ok := c.Get(key)
		if !ok {
			return
		}
		// Get trusted the bytes: re-verify them with an oracle that
		// splits the entry at the documented offsets. Any divergence
		// means the integrity checks let a corrupt entry through.
		e, ok := splitEntry(data)
		if !ok {
			t.Fatalf("Get trusted an entry too short to split (%d bytes)", len(data))
		}
		if e.magic != want.magic || e.format != Format || e.schema != config.SchemaVersion ||
			!bytes.Equal(e.fingerprint, want.fingerprint) || e.key != key {
			t.Fatalf("Get trusted a mismatched header: %+v", e)
		}
		if sum := sha256.Sum256(e.payload); !bytes.Equal(e.sum, sum[:]) {
			t.Fatal("Get trusted an entry whose payload checksum does not match")
		}
		if again, err := encodeResult(res); err != nil || !bytes.Equal(again, e.payload) {
			t.Fatalf("Get returned a result that does not re-encode to the payload (err %v)", err)
		}
	})
}
