package cache

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"sectorpack/internal/core"
	"sectorpack/internal/faultfs"
	"sectorpack/internal/model"
)

// populate solves and caches count distinct instances, returning their
// fingerprints and expected solutions.
func populate(t testing.TB, c *Cache, count int) ([]*Fingerprint, []model.Solution) {
	t.Helper()
	fps := make([]*Fingerprint, count)
	sols := make([]model.Solution, count)
	for k := 0; k < count; k++ {
		in := testInstance(int64(100 + k))
		opt := core.Options{Seed: 1}
		sols[k] = greedySolve(t, in, opt)
		fps[k] = mustFingerprint(t, in, opt, "greedy")
		c.Put(fps[k], sols[k])
	}
	return fps, sols
}

func TestSnapshotRoundTrip(t *testing.T) {
	c := New(0)
	fps, sols := populate(t, c, 5)
	path := filepath.Join(t.TempDir(), "cache.snap")
	n, err := c.SaveSnapshot(faultfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("snapshot wrote %d entries, want 5", n)
	}

	fresh := New(0)
	rep, err := fresh.LoadSnapshot(faultfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Restored != 5 || rep.Skipped != 0 {
		t.Fatalf("load report %+v, want 5 restored / 0 skipped", rep)
	}
	for k, fp := range fps {
		got, ok := fresh.Get(fp)
		if !ok {
			t.Fatalf("entry %d missing after restore", k)
		}
		if solutionString(got) != solutionString(sols[k]) {
			t.Fatalf("entry %d drifted through snapshot:\n got  %s\n want %s",
				k, solutionString(got), solutionString(sols[k]))
		}
	}
	st := fresh.Stats()
	if st.Restored != 5 || st.Stores != 0 {
		t.Fatalf("restore metrics %+v, want Restored=5 Stores=0", st)
	}
}

func TestSnapshotPreservesLRUOrder(t *testing.T) {
	// A tiny budget cache: after restore, eviction order must match the
	// pre-snapshot recency order (oldest evicted first).
	c := New(0)
	fps, _ := populate(t, c, 3)
	// Touch entry 0 so the LRU order is 1 (oldest), 2, 0 (newest).
	if _, ok := c.Get(fps[0]); !ok {
		t.Fatal("warm entry missed")
	}
	path := filepath.Join(t.TempDir(), "cache.snap")
	if _, err := c.SaveSnapshot(faultfs.OS, path); err != nil {
		t.Fatal(err)
	}
	fresh := New(0)
	if _, err := fresh.LoadSnapshot(faultfs.OS, path); err != nil {
		t.Fatal(err)
	}
	fresh.mu.Lock()
	var order []string
	for e := fresh.ll.Back(); e != nil; e = e.Prev() {
		order = append(order, e.Value.(*entry).key)
	}
	fresh.mu.Unlock()
	want := []string{fps[1].Key(), fps[2].Key(), fps[0].Key()}
	for k := range want {
		if order[k] != want[k] {
			t.Fatalf("restored LRU order %v, want %v", order, want)
		}
	}
}

func TestSnapshotRestoreNeverOverwritesLiveEntry(t *testing.T) {
	c := New(0)
	fps, sols := populate(t, c, 1)
	path := filepath.Join(t.TempDir(), "cache.snap")
	if _, err := c.SaveSnapshot(faultfs.OS, path); err != nil {
		t.Fatal(err)
	}
	// A live store for the same key lands before the (late) snapshot load;
	// the restore must not clobber it.
	fresh := New(0)
	fresh.Put(fps[0], sols[0])
	rep, err := fresh.LoadSnapshot(faultfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Restored != 1 {
		t.Fatalf("report %+v", rep)
	}
	if st := fresh.Stats(); st.Entries != 1 || st.Stores != 1 {
		t.Fatalf("stats %+v, want one live entry", st)
	}
}

func TestSnapshotMissingFileIsColdStart(t *testing.T) {
	c := New(0)
	_, err := c.LoadSnapshot(faultfs.OS, filepath.Join(t.TempDir(), "absent.snap"))
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing snapshot error %v, want os.ErrNotExist", err)
	}
}

func TestSnapshotRejectsWrongVersions(t *testing.T) {
	c := New(0)
	populate(t, c, 2)
	var buf bytes.Buffer
	if _, err := c.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	t.Run("magic", func(t *testing.T) {
		bad := append([]byte(nil), raw...)
		bad[0] ^= 0xff
		if _, err := New(0).ReadSnapshot(bytes.NewReader(bad)); err == nil {
			t.Fatal("bad magic accepted")
		}
	})
	t.Run("snapshot-version", func(t *testing.T) {
		bad := append([]byte(nil), raw...)
		binary.LittleEndian.PutUint64(bad[8:], snapshotVersion+1)
		if _, err := New(0).ReadSnapshot(bytes.NewReader(bad)); err == nil {
			t.Fatal("future snapshot version accepted")
		}
	})
	t.Run("fingerprint-version", func(t *testing.T) {
		bad := append([]byte(nil), raw...)
		binary.LittleEndian.PutUint64(bad[16:], fingerprintVersion+1)
		if _, err := New(0).ReadSnapshot(bytes.NewReader(bad)); err == nil {
			t.Fatal("stale fingerprint version accepted; keys would alias")
		}
	})
}

// TestSnapshotCorruptEntrySkippedOthersRestored flips one byte inside the
// first entry's payload: its CRC fails, it is skipped and counted, and the
// remaining entries restore untouched.
func TestSnapshotCorruptEntrySkippedOthersRestored(t *testing.T) {
	c := New(0)
	fps, _ := populate(t, c, 3)
	var buf bytes.Buffer
	if _, err := c.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Header is magic + 3×u64; the first frame's payload starts 8 bytes
	// after that. Flip a byte in the middle of the payload.
	headerLen := len(snapshotMagic) + 24
	plen := binary.LittleEndian.Uint32(raw[headerLen:])
	raw[headerLen+8+int(plen)/2] ^= 0x01

	fresh := New(0)
	rep, err := fresh.ReadSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Restored != 2 || rep.Skipped != 1 {
		t.Fatalf("report %+v, want 2 restored / 1 skipped", rep)
	}
	// The corrupted entry is gone; the others serve.
	restored := 0
	for _, fp := range fps {
		if _, ok := fresh.Get(fp); ok {
			restored++
		}
	}
	if restored != 2 {
		t.Fatalf("%d entries served after corruption, want 2", restored)
	}
}

// TestSnapshotTornTailSkipsRemainder truncates the file mid-frame: entries
// before the tear restore, the rest are counted skipped, and the load does
// not error (a torn snapshot is a degraded warm start, not a failure).
func TestSnapshotTornTailSkipsRemainder(t *testing.T) {
	c := New(0)
	_, _ = populate(t, c, 3)
	var buf bytes.Buffer
	if _, err := c.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	torn := raw[:len(raw)-10]
	fresh := New(0)
	rep, err := fresh.ReadSnapshot(bytes.NewReader(torn))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Restored != 2 || rep.Skipped != 1 {
		t.Fatalf("report %+v, want 2 restored / 1 skipped", rep)
	}
}

// TestSnapshotEntriesAreCanonicallyVerifiable pins the contract the serving
// layer relies on: a restored entry, remapped into its instance's
// coordinates by Get, passes core.VerifySolution for that instance.
func TestSnapshotEntriesAreCanonicallyVerifiable(t *testing.T) {
	c := New(0)
	count := 4
	ins := make([]*model.Instance, count)
	fps := make([]*Fingerprint, count)
	for k := 0; k < count; k++ {
		ins[k] = testInstance(int64(300 + k))
		opt := core.Options{Seed: 1}
		sol := greedySolve(t, ins[k], opt)
		fps[k] = mustFingerprint(t, ins[k], opt, "greedy")
		c.Put(fps[k], sol)
	}
	path := filepath.Join(t.TempDir(), "cache.snap")
	if _, err := c.SaveSnapshot(faultfs.OS, path); err != nil {
		t.Fatal(err)
	}
	fresh := New(0)
	if _, err := fresh.LoadSnapshot(faultfs.OS, path); err != nil {
		t.Fatal(err)
	}
	for k := range ins {
		sol, ok := fresh.Get(fps[k])
		if !ok {
			t.Fatalf("entry %d missing", k)
		}
		if err := core.VerifySolution("greedy", ins[k], sol); err != nil {
			t.Fatalf("restored entry %d fails verification: %v", k, err)
		}
	}
}

// TestSnapshotCrashMatrix kills the snapshot writer at every filesystem
// operation. Invariant: after any crash, loading whatever the directory
// holds yields either the previous snapshot's entries or the new ones in
// full — never a torn file, never an error, never corrupt entries.
func TestSnapshotCrashMatrix(t *testing.T) {
	mkCache := func(n int) *Cache {
		c := New(0)
		populate(t, c, n)
		return c
	}
	// Count pass: snapshot 3 entries over an existing 2-entry snapshot.
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.snap")
	if _, err := mkCache(2).SaveSnapshot(faultfs.OS, path); err != nil {
		t.Fatal(err)
	}
	counter := faultfs.NewInjector(faultfs.OS)
	if _, err := mkCache(3).SaveSnapshot(counter, path); err != nil {
		t.Fatal(err)
	}
	total := counter.Ops()

	for k := int64(1); k <= total; k++ {
		dir := t.TempDir()
		path := filepath.Join(dir, "cache.snap")
		if _, err := mkCache(2).SaveSnapshot(faultfs.OS, path); err != nil {
			t.Fatal(err)
		}
		inj := faultfs.NewInjector(faultfs.OS, faultfs.Fault{N: k, Mode: faultfs.Crash})
		if _, err := mkCache(3).SaveSnapshot(inj, path); err == nil {
			t.Fatalf("crash at op %d: save reported success", k)
		}
		fresh := New(0)
		rep, err := fresh.LoadSnapshot(faultfs.OS, path)
		if err != nil {
			t.Fatalf("crash at op %d left an unloadable snapshot: %v (ops: %s)", k, err, inj)
		}
		if rep.Skipped != 0 {
			t.Fatalf("crash at op %d left corrupt entries: %+v", k, rep)
		}
		if rep.Restored != 2 && rep.Restored != 3 {
			t.Fatalf("crash at op %d: %d entries restored, want the old 2 or new 3", k, rep.Restored)
		}
	}
}

// TestSnapshotFaultCleanupKeepsServing injects plain (non-crash) errors:
// the save fails, the old snapshot survives, and the cache keeps serving.
func TestSnapshotFaultCleanup(t *testing.T) {
	for _, op := range []faultfs.Op{faultfs.OpCreateTemp, faultfs.OpWrite, faultfs.OpSync, faultfs.OpRename} {
		t.Run(string(op), func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "cache.snap")
			c := New(0)
			populate(t, c, 2)
			if _, err := c.SaveSnapshot(faultfs.OS, path); err != nil {
				t.Fatal(err)
			}
			inj := faultfs.NewInjector(faultfs.OS, faultfs.Fault{Op: op, Mode: faultfs.Fail})
			if _, err := c.SaveSnapshot(inj, path); !errors.Is(err, faultfs.ErrInjected) {
				t.Fatalf("fault at %s: error %v", op, err)
			}
			fresh := New(0)
			rep, err := fresh.LoadSnapshot(faultfs.OS, path)
			if err != nil || rep.Restored != 2 {
				t.Fatalf("old snapshot damaged by failed save: %+v, %v", rep, err)
			}
		})
	}
}

// FuzzReadSnapshot feeds the loader arbitrary bytes, seeded with a fresh
// snapshot, a torn one and one with a CRC-flipped entry. The loader must
// never panic, every entry it restores must pass the structural gate, and
// a load that accepts the header never reports more restored plus skipped
// entries than the header promised.
func FuzzReadSnapshot(f *testing.F) {
	c := New(0)
	populate(f, c, 3)
	var buf bytes.Buffer
	if _, err := c.WriteSnapshot(&buf); err != nil {
		f.Fatal(err)
	}
	fresh := buf.Bytes()
	f.Add(fresh)
	f.Add(fresh[:len(fresh)-10])
	flipped := append([]byte(nil), fresh...)
	flipped[len(snapshotMagic)+24+12] ^= 0x01
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		c := New(0)
		rep, err := c.ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		h, herr := faultfs.ReadHeader(bytes.NewReader(data), snapshotMagic, 3)
		if herr != nil {
			t.Fatalf("load accepted a header ReadHeader rejects: %v", herr)
		}
		if rep.Restored < 0 || rep.Skipped < 0 || uint64(rep.Restored)+uint64(rep.Skipped) > h[2] {
			t.Fatalf("report %+v against a header count of %d", rep, h[2])
		}
		for _, e := range c.snapshotEntries() {
			if err := checkSnapshotEntry(&e); err != nil {
				t.Fatalf("restored entry fails the structural gate: %v", err)
			}
		}
	})
}
