package faultfs

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return string(b)
}

func listDir(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range des {
		names = append(names, de.Name())
	}
	return names
}

func TestWriteFileAtomicRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := WriteFileAtomic(OS, path, func(w io.Writer) error {
		_, err := io.WriteString(w, "hello")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, path); got != "hello" {
		t.Fatalf("content %q, want %q", got, "hello")
	}
	if names := listDir(t, dir); len(names) != 1 {
		t.Fatalf("leftover files: %v", names)
	}
}

// TestWriteFileAtomicSyncsParentDirectory pins the durability discipline
// through the injection hooks: the helper must fsync the staged file before
// the rename and fsync the parent directory after it — without the
// directory fsync the rename is not durable across power loss.
func TestWriteFileAtomicSyncsParentDirectory(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	inj := NewInjector(OS)
	if err := WriteFileAtomic(inj, path, func(w io.Writer) error {
		_, err := io.WriteString(w, "payload")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	var ops []Op
	for _, r := range inj.Log() {
		ops = append(ops, r.Op)
	}
	want := []Op{OpCreateTemp, OpWrite, OpSync, OpClose, OpRename, OpSyncDir}
	if len(ops) != len(want) {
		t.Fatalf("op sequence %v, want %v", ops, want)
	}
	for k := range want {
		if ops[k] != want[k] {
			t.Fatalf("op %d = %s, want %s (full: %s)", k+1, ops[k], want[k], inj)
		}
	}
	// The directory fsync must be on the destination's parent, after the
	// rename that installed it.
	last := inj.Log()[len(ops)-1]
	if last.Path != dir {
		t.Fatalf("final SyncDir on %q, want parent %q", last.Path, dir)
	}
}

// TestWriteFileAtomicFaults checks that a failure at every individual
// operation leaves the destination untouched (old content preserved) and no
// temp litter behind — except a failed final SyncDir, after which the new
// content is already installed and only durability reporting is at stake.
func TestWriteFileAtomicFaults(t *testing.T) {
	for _, op := range []Op{OpCreateTemp, OpWrite, OpSync, OpClose, OpRename, OpSyncDir} {
		t.Run(string(op), func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "out.json")
			if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
				t.Fatal(err)
			}
			inj := NewInjector(OS, Fault{Op: op, Mode: Fail})
			err := WriteFileAtomic(inj, path, func(w io.Writer) error {
				_, werr := io.WriteString(w, "new-content")
				return werr
			})
			if err == nil {
				t.Fatalf("fault at %s: want error", op)
			}
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("fault at %s: error %v, want ErrInjected", op, err)
			}
			got := readFile(t, path)
			switch op {
			case OpSyncDir:
				// The rename already happened; the caller is told the write
				// may not be durable, but the file is complete, not torn.
				if got != "new-content" {
					t.Fatalf("after failed SyncDir: content %q", got)
				}
			default:
				if got != "old" {
					t.Fatalf("fault at %s: destination replaced with %q, want old content", op, got)
				}
			}
			for _, name := range listDir(t, dir) {
				if strings.Contains(name, ".tmp") {
					t.Fatalf("fault at %s: temp litter %q", op, name)
				}
			}
		})
	}
}

// TestWriteFileAtomicCrashMatrix kills the writer at every operation and
// checks the atomicity invariant on the surviving directory state: the
// destination holds the old content or the complete new content, never a
// torn mix. (Temp litter is allowed after a crash — a real kill cannot
// clean up either — but the destination must be intact.)
func TestWriteFileAtomicCrashMatrix(t *testing.T) {
	// Count pass.
	countDir := t.TempDir()
	counter := NewInjector(OS)
	if err := WriteFileAtomic(counter, filepath.Join(countDir, "out.json"), func(w io.Writer) error {
		_, err := io.WriteString(w, "new-content")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	total := counter.Ops()
	if total < 5 {
		t.Fatalf("suspiciously few ops: %d", total)
	}
	for k := int64(1); k <= total; k++ {
		dir := t.TempDir()
		path := filepath.Join(dir, "out.json")
		if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
			t.Fatal(err)
		}
		inj := NewInjector(OS, Fault{N: k, Mode: Crash})
		err := WriteFileAtomic(inj, path, func(w io.Writer) error {
			_, werr := io.WriteString(w, "new-content")
			return werr
		})
		if !inj.Crashed() {
			t.Fatalf("crash at op %d did not fire (ops=%d)", k, inj.Ops())
		}
		got := readFile(t, path)
		if got != "old" && got != "new-content" {
			t.Fatalf("crash at op %d: torn destination %q (ops: %s)", k, got, inj)
		}
		// Crash on the final SyncDir (or later bookkeeping) may still
		// succeed from the caller's view only if no error was returned;
		// WriteFileAtomic always returns the crash error.
		if err == nil {
			t.Fatalf("crash at op %d: writer reported success", k)
		}
	}
}

func TestInjectorShortWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	inj := NewInjector(OS, Fault{Op: OpWrite, Mode: ShortWrite})
	f, err := inj.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	n, err := f.Write([]byte("0123456789"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("short write error %v", err)
	}
	if n != 5 {
		t.Fatalf("short write wrote %d bytes, want 5", n)
	}
	// The injector is not crashed: later operations proceed.
	if inj.Crashed() {
		t.Fatal("ShortWrite must not crash the FS")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, path); got != "01234" {
		t.Fatalf("on-disk prefix %q, want %q", got, "01234")
	}
}

func TestInjectorCrashKillsEverything(t *testing.T) {
	dir := t.TempDir()
	inj := NewInjector(OS, Fault{Op: OpCreate, Mode: Crash})
	if _, err := inj.Create(filepath.Join(dir, "a")); !errors.Is(err, errCrashed) {
		t.Fatalf("create error %v, want errCrashed", err)
	}
	if _, err := inj.Create(filepath.Join(dir, "b")); !errors.Is(err, errCrashed) {
		t.Fatalf("post-crash create error %v, want errCrashed", err)
	}
	if err := inj.Rename(filepath.Join(dir, "a"), filepath.Join(dir, "c")); !errors.Is(err, errCrashed) {
		t.Fatalf("post-crash rename error %v, want errCrashed", err)
	}
	if names := listDir(t, dir); len(names) != 0 {
		t.Fatalf("crashed FS still created files: %v", names)
	}
}

func TestInjectorNthMatchAndPathFilter(t *testing.T) {
	dir := t.TempDir()
	inj := NewInjector(OS, Fault{Op: OpCreate, Path: "target", N: 2, Mode: Fail})
	if _, err := inj.Create(filepath.Join(dir, "target-1")); err != nil {
		t.Fatalf("first matching op must pass: %v", err)
	}
	if _, err := inj.Create(filepath.Join(dir, "other")); err != nil {
		t.Fatalf("non-matching op must pass: %v", err)
	}
	if _, err := inj.Create(filepath.Join(dir, "target-2")); !errors.Is(err, ErrInjected) {
		t.Fatalf("second matching op error %v, want ErrInjected", err)
	}
}

func TestReadOnlyHandlesAreNotFaultPoints(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	if err := os.WriteFile(path, []byte("data"), 0o644); err != nil {
		t.Fatal(err)
	}
	inj := NewInjector(OS, Fault{Mode: Fail}) // would fire on the first mutating op
	f, err := inj.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b, err := io.ReadAll(f)
	if err != nil || string(b) != "data" {
		t.Fatalf("read through injector: %q, %v", b, err)
	}
	if inj.Ops() != 0 {
		t.Fatalf("read-only ops were counted: %d (%s)", inj.Ops(), inj)
	}
}
