// Package cachefs is the filesystem seam under the persistent result
// cache (internal/rescache). Every durable-state operation the cache
// performs — entry reads, temp-file writes, the atomic rename, the
// directory sync, and the stale-temp sweep — goes through the FS
// interface, so tests can substitute a fault-injecting implementation
// (Fault) and prove the cache's failure-model invariants: a corrupted,
// truncated, or torn entry is never trusted, an injected EIO/ENOSPC
// degrades to a recompute or a typed error, and a simulated crash never
// wedges a later pass.
//
// The package deliberately lives outside internal/rescache: the
// repo's claimerr analyzer forbids discarding errors returned by
// rescache functions, and the cache's own best-effort cleanup calls
// (removing a scratch file whose leak costs at most a later sweep)
// must stay expressible without weakening that rule for callers.
package cachefs

import (
	"io"
	"io/fs"
	"os"
)

// File is the write handle the cache uses for temp entries: sequential
// writes, a durability barrier, and Close.
type File interface {
	io.Writer
	// Name returns the file's path, as os.File.Name does.
	Name() string
	// Sync flushes the file's contents to stable storage.
	Sync() error
	Close() error
}

// FS is the set of filesystem operations the result cache performs.
// Implementations must be safe for concurrent use.
type FS interface {
	MkdirAll(dir string, perm fs.FileMode) error
	ReadDir(dir string) ([]fs.DirEntry, error)
	ReadFile(path string) ([]byte, error)
	// CreateTemp creates a new unique file in dir (os.CreateTemp
	// pattern semantics).
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(path string) error
	// SyncDir flushes dir's directory entries to stable storage, making
	// a preceding rename durable across a machine crash.
	SyncDir(dir string) error
}

// OS returns the real-filesystem implementation.
func OS() FS { return osFS{} }

type osFS struct{}

func (osFS) MkdirAll(dir string, perm fs.FileMode) error { return os.MkdirAll(dir, perm) }
func (osFS) ReadDir(dir string) ([]fs.DirEntry, error)   { return os.ReadDir(dir) }
func (osFS) ReadFile(path string) ([]byte, error)        { return os.ReadFile(path) }
func (osFS) Rename(oldpath, newpath string) error        { return os.Rename(oldpath, newpath) }
func (osFS) Remove(path string) error                    { return os.Remove(path) }

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}
