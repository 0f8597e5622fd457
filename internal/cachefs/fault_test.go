package cachefs

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// TestFaultFailAtNthOp: the injector must hit exactly the Nth operation
// of the targeted kind and pass every other operation through.
func TestFaultFailAtNthOp(t *testing.T) {
	dir := t.TempDir()
	f := NewFault(OS())
	f.FailAt(OpReadFile, 2, syscall.EIO)

	path := filepath.Join(dir, "x")
	if err := os.WriteFile(path, []byte("payload"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadFile(path); err != nil {
		t.Fatalf("1st ReadFile failed: %v (fault armed for the 2nd)", err)
	}
	if _, err := f.ReadFile(path); !errors.Is(err, syscall.EIO) {
		t.Fatalf("2nd ReadFile = %v, want EIO", err)
	}
	if _, err := f.ReadFile(path); err != nil {
		t.Fatalf("3rd ReadFile failed: %v (fault must fire once)", err)
	}
}

// TestFaultPartialWrite: a torn write delivers the prefix, then errors.
func TestFaultPartialWrite(t *testing.T) {
	dir := t.TempDir()
	f := NewFault(OS())
	f.PartialWriteAt(1, 3, syscall.ENOSPC)

	file, err := f.CreateTemp(dir, "t*")
	if err != nil {
		t.Fatal(err)
	}
	n, werr := file.Write([]byte("abcdef"))
	if !errors.Is(werr, syscall.ENOSPC) || n != 3 {
		t.Fatalf("torn write = (%d, %v), want (3, ENOSPC)", n, werr)
	}
	if err := file.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(file.Name())
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "abc" {
		t.Fatalf("file holds %q after torn write, want %q", data, "abc")
	}
}

// TestFaultCrashLatches: after a crash fires, every later operation of
// any kind fails with ErrCrashed until Revive.
func TestFaultCrashLatches(t *testing.T) {
	dir := t.TempDir()
	f := NewFault(OS())
	f.CrashAt(OpRename, 1)

	if err := f.Rename(filepath.Join(dir, "a"), filepath.Join(dir, "b")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("rename = %v, want ErrCrashed", err)
	}
	if _, err := f.ReadFile(filepath.Join(dir, "a")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash ReadFile = %v, want ErrCrashed", err)
	}
	if _, err := f.ReadDir(dir); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash ReadDir = %v, want ErrCrashed", err)
	}
	f.Revive()
	if _, err := f.ReadDir(dir); err != nil {
		t.Fatalf("post-revive ReadDir failed: %v", err)
	}
}

// TestFaultOpLog: the injector records operation order — the hook the
// sync-before-rename protocol assertion hangs off.
func TestFaultOpLog(t *testing.T) {
	dir := t.TempDir()
	f := NewFault(OS())
	file, err := f.CreateTemp(dir, "t*")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := file.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := file.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := file.Close(); err != nil {
		t.Fatal(err)
	}
	want := []Op{OpCreateTmp, OpWrite, OpFileSync, OpFileClose}
	got := f.OpLog()
	if len(got) != len(want) {
		t.Fatalf("op log %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("op log %v, want %v", got, want)
		}
	}
}
