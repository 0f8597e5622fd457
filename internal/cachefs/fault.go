package cachefs

import (
	"errors"
	"io/fs"
	"sync"
)

// ErrCrashed is the error every operation returns after a Fault has
// simulated a process/machine crash: from the caller's point of view
// the filesystem simply stopped answering, and whatever had not been
// renamed or synced is lost.
var ErrCrashed = errors.New("cachefs: simulated crash")

// Op names one kind of filesystem operation for fault targeting. File
// handle operations (write/sync/close) count globally, not per handle.
type Op string

// The operation kinds a Fault can target.
const (
	OpMkdirAll  Op = "mkdirall"
	OpReadDir   Op = "readdir"
	OpReadFile  Op = "readfile"
	OpCreateTmp Op = "createtemp"
	OpRename    Op = "rename"
	OpRemove    Op = "remove"
	OpSyncDir   Op = "syncdir"
	OpWrite     Op = "write"
	OpFileSync  Op = "filesync"
	OpFileClose Op = "fileclose"
)

// injection is one armed fault: the Nth operation of kind op (counted
// from arming, 1-based) fails with err. partial applies to OpWrite
// only: that many bytes reach the inner file before the error. crash
// additionally latches the whole filesystem dead.
type injection struct {
	op      Op
	at      int
	err     error
	partial int
	crash   bool
}

// Fault wraps an FS and injects failures: EIO/ENOSPC on the Nth
// operation of a kind, short writes, and whole-filesystem crashes. It
// also records the order of every operation, so tests can assert
// protocol properties (e.g. "the temp file is synced before the
// rename").
type Fault struct {
	inner FS

	mu      sync.Mutex
	crashed bool
	count   map[Op]int
	armed   []injection
	log     []Op
}

// NewFault wraps inner with a fault injector. With no faults armed it
// is a transparent proxy.
func NewFault(inner FS) *Fault {
	return &Fault{inner: inner, count: make(map[Op]int)}
}

// FailAt arms a fault: the nth operation of kind op from now (1-based)
// fails with err without reaching the inner filesystem.
func (f *Fault) FailAt(op Op, n int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.armed = append(f.armed, injection{op: op, at: f.count[op] + n, err: err})
}

// PartialWriteAt arms a torn write: the nth Write from now delivers
// only keep bytes to the inner file, then fails with err.
func (f *Fault) PartialWriteAt(n, keep int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.armed = append(f.armed, injection{op: OpWrite, at: f.count[OpWrite] + n, err: err, partial: keep})
}

// CrashAt arms a crash: the nth operation of kind op from now fails
// with ErrCrashed, and every operation after it — any kind, any handle
// — fails the same way, as if the process had been killed at that
// instant. Revive clears the condition (the "restarted process" half
// of a crash-recovery test).
func (f *Fault) CrashAt(op Op, n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.armed = append(f.armed, injection{op: op, at: f.count[op] + n, err: ErrCrashed, crash: true})
}

// Revive clears a crash and every still-armed fault.
func (f *Fault) Revive() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashed = false
	f.armed = nil
}

// OpLog returns a copy of the operations attempted so far, in order.
func (f *Fault) OpLog() []Op {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]Op(nil), f.log...)
}

// check records one attempted operation and returns the fault to
// inject, if any. The bool reports a partial write (inject after
// partial bytes).
func (f *Fault) check(op Op) (injection, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.log = append(f.log, op)
	if f.crashed {
		return injection{op: op, err: ErrCrashed}, true
	}
	f.count[op]++
	for i, inj := range f.armed {
		if inj.op == op && inj.at == f.count[op] {
			f.armed = append(f.armed[:i], f.armed[i+1:]...)
			if inj.crash {
				f.crashed = true
			}
			return inj, true
		}
	}
	return injection{}, false
}

func (f *Fault) MkdirAll(dir string, perm fs.FileMode) error {
	if inj, ok := f.check(OpMkdirAll); ok {
		return inj.err
	}
	return f.inner.MkdirAll(dir, perm)
}

func (f *Fault) ReadDir(dir string) ([]fs.DirEntry, error) {
	if inj, ok := f.check(OpReadDir); ok {
		return nil, inj.err
	}
	return f.inner.ReadDir(dir)
}

func (f *Fault) ReadFile(path string) ([]byte, error) {
	if inj, ok := f.check(OpReadFile); ok {
		return nil, inj.err
	}
	return f.inner.ReadFile(path)
}

func (f *Fault) CreateTemp(dir, pattern string) (File, error) {
	if inj, ok := f.check(OpCreateTmp); ok {
		return nil, inj.err
	}
	file, err := f.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{fault: f, inner: file}, nil
}

func (f *Fault) Rename(oldpath, newpath string) error {
	if inj, ok := f.check(OpRename); ok {
		return inj.err
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *Fault) Remove(path string) error {
	if inj, ok := f.check(OpRemove); ok {
		return inj.err
	}
	return f.inner.Remove(path)
}

func (f *Fault) SyncDir(dir string) error {
	if inj, ok := f.check(OpSyncDir); ok {
		return inj.err
	}
	return f.inner.SyncDir(dir)
}

// faultFile routes a File's operations back through the Fault's
// injection tables.
type faultFile struct {
	fault *Fault
	inner File
}

func (f *faultFile) Name() string { return f.inner.Name() }

func (f *faultFile) Write(p []byte) (int, error) {
	inj, ok := f.fault.check(OpWrite)
	if !ok {
		return f.inner.Write(p)
	}
	n := 0
	if inj.partial > 0 && inj.partial < len(p) {
		// A torn write: part of the payload lands before the fault.
		n, _ = f.inner.Write(p[:inj.partial])
	}
	return n, inj.err
}

func (f *faultFile) Sync() error {
	if inj, ok := f.fault.check(OpFileSync); ok {
		return inj.err
	}
	return f.inner.Sync()
}

func (f *faultFile) Close() error {
	if inj, ok := f.fault.check(OpFileClose); ok {
		return inj.err
	}
	return f.inner.Close()
}
