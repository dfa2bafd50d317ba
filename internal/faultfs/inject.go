package faultfs

import (
	"fmt"
	"io/fs"
	"os"
	"strings"
	"sync"
)

// Op names one FS operation class for fault matching and the operation log.
type Op string

const (
	OpCreate     Op = "create"      // Create
	OpCreateTemp Op = "create-temp" // CreateTemp
	OpOpenFile   Op = "open-file"   // OpenFile
	OpWrite      Op = "write"       // File.Write on a mutable handle
	OpSync       Op = "sync"        // File.Sync
	OpClose      Op = "close"       // File.Close on a mutable handle
	OpTruncate   Op = "truncate"    // File.Truncate
	OpRename     Op = "rename"      // Rename
	OpRemove     Op = "remove"      // Remove
	OpSyncDir    Op = "sync-dir"    // SyncDir
	OpMkdirAll   Op = "mkdir-all"   // MkdirAll
)

// Mode selects what an injected fault does at its operation.
type Mode int

const (
	// Fail returns an error without performing the operation. The process
	// keeps running (the caller sees an IO error and must handle it).
	Fail Mode = iota
	// ShortWrite performs half the write, then returns an error. Only
	// meaningful on OpWrite; other operations treat it as Fail.
	ShortWrite
	// Crash simulates kill -9 at this operation: a write lands a torn
	// prefix, any other operation has no effect, and every subsequent
	// operation on this Injector fails (Crashed reports it). The on-disk
	// state is exactly what a real kill would leave behind.
	Crash
)

// Fault is one scripted fault: it fires on the N-th mutating operation
// matching (Op, Path).
type Fault struct {
	// Op restricts the fault to one operation class; empty matches all.
	Op Op
	// Path, when non-empty, restricts the fault to operations whose path
	// contains it as a substring.
	Path string
	// N fires the fault on the N-th matching operation (1-based). Zero
	// means 1.
	N int64
	// Mode is what happens when the fault fires.
	Mode Mode
	// Err overrides the returned error; nil means ErrInjected (Fail and
	// ShortWrite) or a simulated-crash error (Crash).
	Err error
}

// OpRecord is one logged mutating operation.
type OpRecord struct {
	Op   Op
	Path string
}

// Injector wraps an FS and applies scripted faults to mutating operations.
// It also counts and logs every mutating operation, which is how the
// crash-consistency matrix enumerates its kill points and how fsync
// discipline is asserted. Safe for concurrent use.
type Injector struct {
	inner FS

	mu      sync.Mutex
	faults  []Fault
	matched []int64 // per-fault count of matching ops seen
	ops     int64
	log     []OpRecord
	crashed bool
}

// NewInjector wraps inner with the given scripted faults.
func NewInjector(inner FS, faults ...Fault) *Injector {
	return &Injector{inner: inner, faults: faults, matched: make([]int64, len(faults))}
}

// Ops returns the number of mutating operations attempted so far
// (including the one that crashed, excluding post-crash attempts).
func (i *Injector) Ops() int64 {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.ops
}

// Log returns a copy of the mutating-operation log.
func (i *Injector) Log() []OpRecord {
	i.mu.Lock()
	defer i.mu.Unlock()
	return append([]OpRecord(nil), i.log...)
}

// Crashed reports whether a Crash fault has fired.
func (i *Injector) Crashed() bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.crashed
}

// String renders the op log compactly for test failure messages.
func (i *Injector) String() string {
	var b strings.Builder
	for k, r := range i.Log() {
		if k > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%d:%s(%s)", k+1, r.Op, r.Path)
	}
	return b.String()
}

// check records one mutating operation and decides its fate: nil (proceed),
// or a non-nil error with mode describing the partial effect to apply.
func (i *Injector) check(op Op, path string) (mode Mode, err error) {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.crashed {
		return Fail, errCrashed
	}
	i.ops++
	i.log = append(i.log, OpRecord{Op: op, Path: path})
	for f := range i.faults {
		ft := &i.faults[f]
		if ft.Op != "" && ft.Op != op {
			continue
		}
		if ft.Path != "" && !strings.Contains(path, ft.Path) {
			continue
		}
		i.matched[f]++
		n := ft.N
		if n <= 0 {
			n = 1
		}
		if i.matched[f] != n {
			continue
		}
		err := ft.Err
		if err == nil {
			if ft.Mode == Crash {
				err = errCrashed
			} else {
				err = ErrInjected
			}
		}
		if ft.Mode == Crash {
			i.crashed = true
		}
		return ft.Mode, fmt.Errorf("%s %s: %w", op, path, err)
	}
	return Fail, nil
}

func (i *Injector) Create(name string) (File, error) {
	if _, err := i.check(OpCreate, name); err != nil {
		return nil, err
	}
	f, err := i.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &injFile{inj: i, f: f, mutable: true}, nil
}

func (i *Injector) CreateTemp(dir, pattern string) (File, error) {
	if _, err := i.check(OpCreateTemp, dir); err != nil {
		return nil, err
	}
	f, err := i.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &injFile{inj: i, f: f, mutable: true}, nil
}

// writeFlags are the open flags that make a handle mutable (its Write,
// Sync, Close, Truncate become injection points).
const writeFlags = os.O_WRONLY | os.O_RDWR | os.O_CREATE | os.O_APPEND | os.O_TRUNC

func (i *Injector) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	mutable := flag&writeFlags != 0
	if mutable {
		if _, err := i.check(OpOpenFile, name); err != nil {
			return nil, err
		}
	}
	f, err := i.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &injFile{inj: i, f: f, mutable: mutable}, nil
}

func (i *Injector) Open(name string) (File, error) {
	f, err := i.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &injFile{inj: i, f: f}, nil
}

func (i *Injector) Rename(oldpath, newpath string) error {
	if _, err := i.check(OpRename, newpath); err != nil {
		return err
	}
	return i.inner.Rename(oldpath, newpath)
}

func (i *Injector) Remove(name string) error {
	if _, err := i.check(OpRemove, name); err != nil {
		return err
	}
	return i.inner.Remove(name)
}

func (i *Injector) SyncDir(dir string) error {
	if _, err := i.check(OpSyncDir, dir); err != nil {
		return err
	}
	return i.inner.SyncDir(dir)
}

func (i *Injector) MkdirAll(dir string, perm fs.FileMode) error {
	if _, err := i.check(OpMkdirAll, dir); err != nil {
		return err
	}
	return i.inner.MkdirAll(dir, perm)
}

func (i *Injector) ReadDir(dir string) ([]fs.DirEntry, error) { return i.inner.ReadDir(dir) }

// injFile routes a file handle's mutating calls through the injector.
// Read-only handles pass through untouched (reads are not fault points).
type injFile struct {
	inj     *Injector
	f       File
	mutable bool
}

func (f *injFile) Read(p []byte) (int, error) { return f.f.Read(p) }

func (f *injFile) Write(p []byte) (int, error) {
	if !f.mutable {
		return f.f.Write(p)
	}
	mode, err := f.inj.check(OpWrite, f.f.Name())
	if err != nil {
		if mode == ShortWrite || mode == Crash {
			// A torn write: a prefix of the buffer reaches the file before
			// the failure, exactly what an interrupted write(2) leaves.
			n, werr := f.f.Write(p[:len(p)/2])
			if werr != nil {
				return n, werr
			}
			return n, err
		}
		return 0, err
	}
	return f.f.Write(p)
}

func (f *injFile) Sync() error {
	if f.mutable {
		if _, err := f.inj.check(OpSync, f.f.Name()); err != nil {
			return err
		}
	}
	return f.f.Sync()
}

func (f *injFile) Truncate(size int64) error {
	if f.mutable {
		if _, err := f.inj.check(OpTruncate, f.f.Name()); err != nil {
			return err
		}
	}
	return f.f.Truncate(size)
}

func (f *injFile) Close() error {
	if f.mutable {
		if _, err := f.inj.check(OpClose, f.f.Name()); err != nil {
			f.f.Close() // release the real handle; the simulated process is gone
			return err
		}
	}
	return f.f.Close()
}

func (f *injFile) Name() string { return f.f.Name() }
