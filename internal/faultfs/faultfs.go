// Package faultfs is the filesystem seam under every persistence path in
// the repository: the atomic-write helper (model.SaveFile and friends), the
// solve-cache snapshot (internal/cache), and the session delta journal
// (internal/session) all perform their file operations through the FS
// interface instead of calling package os directly. In production the seam
// is invisible — OS is a zero-cost passthrough — but tests swap in an
// Injector that fails, tears, or "crashes" any scripted operation, which is
// what drives the crash-consistency matrix: run a workload once to count
// its filesystem operations, then re-run it once per operation with a
// simulated kill at exactly that point and assert the recovery invariants
// on whatever the directory was left holding. The snapshot and the
// journal also share one on-disk record format, the header-and-frame codec
// in frame.go.
//
// The sectorlint fsyncorder analyzer enforces the seam: raw os.Create /
// os.OpenFile / os.WriteFile / os.Rename calls inside internal/cache,
// internal/session and internal/model are findings, so no persistence
// write can bypass the injection hooks (or the durability discipline they
// pin down).
//
// What the injector can and cannot simulate: torn writes (a prefix of the
// buffer reaches the file), failed syncs/renames/creates, and a process
// kill at any operation boundary are all covered. Loss of page-cache data
// that was written but never fsynced is NOT simulated — faultfs writes
// through the real filesystem — so the fsync *discipline* (file sync before
// rename, directory sync after rename, journal sync cadence) is pinned by
// asserting on the recorded operation log instead.
package faultfs

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// File is the subset of *os.File the persistence paths use.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	// Sync flushes the file's data to stable storage (fsync).
	Sync() error
	// Truncate changes the file's size; the journal recovery path uses it
	// to drop a torn tail.
	Truncate(size int64) error
	// Name returns the path the file was opened with.
	Name() string
}

// FS is the filesystem surface persistence code is written against. Every
// mutating method is an injection point; read-only operations pass through.
type FS interface {
	// Create creates or truncates the named file for writing.
	Create(name string) (File, error)
	// CreateTemp creates a new temporary file in dir (os.CreateTemp
	// semantics); the atomic-write helper stages content in one.
	CreateTemp(dir, pattern string) (File, error)
	// OpenFile is the generalized open; the journal uses it for append and
	// for read-write recovery opens.
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	// Open opens the named file for reading.
	Open(name string) (File, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes the named file.
	Remove(name string) error
	// SyncDir fsyncs the directory itself, making preceding renames and
	// creates in it durable across power loss.
	SyncDir(dir string) error
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string, perm fs.FileMode) error
	// ReadDir lists dir, sorted by filename.
	ReadDir(dir string) ([]fs.DirEntry, error)
}

// OS is the production FS: direct passthrough to package os.
var OS FS = osFS{}

type osFS struct{}

func (osFS) Create(name string) (File, error) { return os.Create(name) }

func (osFS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }

func (osFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

func (osFS) Open(name string) (File, error) { return os.Open(name) }

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	// fsync on a directory commits its entries (the rename just performed)
	// to stable storage; without it a power loss can roll the rename back
	// even though the file's own data was synced.
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

func (osFS) MkdirAll(dir string, perm fs.FileMode) error { return os.MkdirAll(dir, perm) }

func (osFS) ReadDir(dir string) ([]fs.DirEntry, error) { return os.ReadDir(dir) }

// WriteFileAtomic writes a file at path through fsys with full crash
// atomicity and durability: the content is staged in a temp file in path's
// directory, fsynced, closed, renamed over the destination, and the parent
// directory is fsynced so the rename itself survives power loss. Any
// failure removes the temp file; the destination either keeps its previous
// content or holds the complete new content, never a torn mix.
func WriteFileAtomic(fsys FS, path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := fsys.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := write(f); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return err
	}
	// A rename is only durable once the directory entry is on disk; fsync
	// the parent so a post-rename power loss cannot resurrect the old file.
	return fsys.SyncDir(dir)
}

// ErrInjected is the error injected faults return (wrapped per-operation).
var ErrInjected = errors.New("faultfs: injected fault")

// errCrashed is returned by every operation after a simulated crash: the
// "process" is dead, so no further filesystem effect happens. Callers ask
// Injector.Crashed instead.
var errCrashed = errors.New("faultfs: simulated crash")
