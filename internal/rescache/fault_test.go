package rescache

import (
	"os"
	"reflect"
	"syscall"
	"testing"

	"dcasim/internal/cachefs"
	"dcasim/internal/config"
)

// checkIntact asserts the cache's headline fault invariant for one key:
// Get either misses or returns exactly want — never a corrupted result
// — and the cache is not wedged: a recompute (Put over the real
// filesystem) must land and read back.
func checkIntact(t *testing.T, dir, key string, want interface{}) {
	t.Helper()
	c, err := Open(dir) // fresh cache over the real FS: the "restarted process"
	if err != nil {
		t.Fatalf("reopen after fault: %v", err)
	}
	if got, ok := c.Get(key); ok && !reflect.DeepEqual(got, want) {
		t.Fatalf("Get trusted a corrupted entry: %+v", got)
	}
	if err := c.Put(key, sampleResult()); err != nil {
		t.Fatalf("recompute Put after fault: %v", err)
	}
	got, ok := c.Get(key)
	if !ok || !reflect.DeepEqual(got, sampleResult()) {
		t.Fatalf("cache wedged after fault: Get = (%+v, %v)", got, ok)
	}
}

// TestFaultEveryPutGetOp is the systematic fault sweep: inject an EIO
// at each successive filesystem operation of a clean Put+Get cycle and
// prove that no fault ever corrupts an entry or wedges the cache —
// every failure either degrades to a recompute or surfaces as a typed
// rescache error.
func TestFaultEveryPutGetOp(t *testing.T) {
	key := config.Test().Hash()
	want := sampleResult()

	// Record the operation sequence of one clean cycle.
	probe := cachefs.NewFault(cachefs.OS())
	pc, err := OpenFS(t.TempDir(), probe)
	if err != nil {
		t.Fatal(err)
	}
	if err := pc.Put(key, want); err != nil {
		t.Fatal(err)
	}
	if _, ok := pc.Get(key); !ok {
		t.Fatal("clean Get missed")
	}
	script := probe.OpLog()
	if len(script) < 6 {
		t.Fatalf("clean Put+Get performed only %d ops: %v", len(script), script)
	}

	ordinal := map[cachefs.Op]int{}
	for i, op := range script {
		ordinal[op]++
		nth := ordinal[op]
		t.Run(string(op), func(t *testing.T) {
			dir := t.TempDir()
			fault := cachefs.NewFault(cachefs.OS())
			c, err := OpenFS(dir, fault)
			if err != nil {
				t.Fatal(err)
			}
			fault.FailAt(op, nth, syscall.EIO)
			perr := c.Put(key, want)
			got, ok := c.Get(key)
			if ok && !reflect.DeepEqual(got, want) {
				t.Fatalf("op %d (%s): Get trusted a corrupted entry", i, op)
			}
			if perr == nil && !ok {
				// A fault swallowed by Put (best-effort dir sync, the
				// Get-side fault) may cost the hit, never corrupt it.
				t.Logf("op %d (%s): Put ok but Get missed (acceptable degrade)", i, op)
			}
			checkIntact(t, dir, key, want)
		})
	}
}

// TestFaultTornWriteNeverVisible: a write that lands only a prefix of
// the entry (torn by ENOSPC) must fail the Put, never become a readable
// entry, and leave the cache recomputable.
func TestFaultTornWrite(t *testing.T) {
	dir := t.TempDir()
	fault := cachefs.NewFault(cachefs.OS())
	c, err := OpenFS(dir, fault)
	if err != nil {
		t.Fatal(err)
	}
	key := config.Test().Hash()
	fault.PartialWriteAt(1, 10, syscall.ENOSPC)
	if err := c.Put(key, sampleResult()); err == nil {
		t.Fatal("Put succeeded through a torn write")
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("torn write became a readable entry")
	}
	checkIntact(t, dir, key, sampleResult())
}

// TestFaultCrashAtRename: the process dies at the rename — the entry
// must not exist, the abandoned temp file must not wedge a restarted
// process, and the key recomputes cleanly.
func TestFaultCrashAtRename(t *testing.T) {
	dir := t.TempDir()
	fault := cachefs.NewFault(cachefs.OS())
	c, err := OpenFS(dir, fault)
	if err != nil {
		t.Fatal(err)
	}
	key := config.Test().Hash()
	fault.CrashAt(cachefs.OpRename, 1)
	if err := c.Put(key, sampleResult()); err == nil {
		t.Fatal("Put succeeded through a crash at rename")
	}
	// The dead process leaves its temp file behind (its post-crash
	// cleanup could not run); the entry must not be visible.
	if _, ok := c.Get(key); ok {
		t.Fatal("entry visible although the rename never happened")
	}
	checkIntact(t, dir, key, sampleResult())
}

// TestFaultCrashAfterRename: the process dies right after the rename
// (at the directory sync). The entry is whole on disk — rename is
// atomic — so a restarted process may trust it.
func TestFaultCrashAfterRename(t *testing.T) {
	dir := t.TempDir()
	fault := cachefs.NewFault(cachefs.OS())
	c, err := OpenFS(dir, fault)
	if err != nil {
		t.Fatal(err)
	}
	key := config.Test().Hash()
	want := sampleResult()
	fault.CrashAt(cachefs.OpSyncDir, 1)
	if err := c.Put(key, want); err != nil {
		t.Fatalf("Put failed on the best-effort dir sync: %v", err)
	}
	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get(key)
	if !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("whole renamed entry not readable after crash: (%+v, %v)", got, ok)
	}
}

// TestPutSyncsBeforeRename pins the durability protocol: the temp file
// is fsynced before the rename publishes it, and the directory is
// synced after — the ordering that stops a machine crash from ever
// surfacing a zero-length entry under the final name.
func TestPutSyncsBeforeRename(t *testing.T) {
	fault := cachefs.NewFault(cachefs.OS())
	c, err := OpenFS(t.TempDir(), fault)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(config.Test().Hash(), sampleResult()); err != nil {
		t.Fatal(err)
	}
	sync, rename, dirsync := -1, -1, -1
	for i, op := range fault.OpLog() {
		switch op {
		case cachefs.OpFileSync:
			sync = i
		case cachefs.OpRename:
			rename = i
		case cachefs.OpSyncDir:
			dirsync = i
		}
	}
	if sync < 0 || rename < 0 || dirsync < 0 {
		t.Fatalf("Put skipped a durability step: ops %v", fault.OpLog())
	}
	if !(sync < rename && rename < dirsync) {
		t.Fatalf("durability ordering broken: sync@%d rename@%d dirsync@%d", sync, rename, dirsync)
	}
}

// TestCorruptEntriesNeverTrusted: every flavour of on-disk damage —
// zero-length (the crash-after-unsynced-rename artifact), truncation,
// a flipped payload byte, an entry copied under the wrong key — must
// read as a clean miss.
func TestCorruptEntriesNeverTrusted(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := config.Test().Hash()
	if err := c.Put(key, sampleResult()); err != nil {
		t.Fatal(err)
	}
	valid, err := os.ReadFile(c.Path(key))
	if err != nil {
		t.Fatal(err)
	}

	corrupt := map[string][]byte{
		"zero-length": {},
		"truncated":   valid[:len(valid)/2],
		"garbage":     []byte("not json at all"),
	}
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40
	corrupt["bit-flip"] = flipped

	names := []string{"zero-length", "truncated", "garbage", "bit-flip"}
	for _, name := range names {
		if err := os.WriteFile(c.Path(key), corrupt[name], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.Get(key); ok {
			t.Errorf("%s entry was trusted", name)
		}
	}

	// A byte-valid entry filed under a different key must also miss:
	// the envelope's key binds the content to its address.
	other := "f" + key[1:]
	if err := os.WriteFile(c.Path(other), valid, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(other); ok {
		t.Error("entry misfiled under a different key was trusted")
	}
}
