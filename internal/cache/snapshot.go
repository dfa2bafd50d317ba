// Cache snapshots: a versioned, checksummed dump of the verified canonical
// solutions the LRU holds, written atomically (temp + fsync + rename +
// dir-fsync via faultfs) so a crash or redeploy never leaves a torn file,
// and loaded entry-by-entry on restart so one corrupt frame costs one entry,
// not the warm start.
//
// On disk it is faultfs's record format, shared with the session journal:
// header magic "SPSNAP1\n", snapshot version, fingerprint version and
// entry count, then one frame per entry holding the JSON of its key and
// solution (snapshotEntry). A file of any other layout version is refused
// whole, so an upgrade that bumps snapshotVersion starts cold.
//
// Trust model: a snapshot is a warm-start hint, not an authority. The load
// path checks the envelope versions (snapshot layout AND fingerprint
// version — a key computed by an older canonicalization must never alias a
// new one), a CRC per entry frame, and structural sanity per entry (key
// shape, owner indices in range, no NaN, non-negative profit and bound,
// capped dimensions); anything that fails is skipped and counted, never
// restored. Semantic verification is deliberately NOT done here — it needs
// the instance, which only arrives with a request — so every restored
// entry is re-gated through core.VerifySolution by the serving layer on its
// first hit, exactly like any other cache entry (a failure drops the entry
// and solves fresh). A restored solution is therefore never served
// unverified.
//
// What is deliberately not persisted: hit/miss/eviction counters (they
// describe one process's life), in-flight singleflights, and degraded
// solutions (never cached in the first place).
package cache

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"

	"sectorpack/internal/faultfs"
	"sectorpack/internal/model"
)

// snapshotMagic identifies a sectord cache snapshot file.
const snapshotMagic = "SPSNAP1\n"

// snapshotVersion is bumped whenever the layout changes.
const snapshotVersion = 2

// maxSnapshotDim bounds per-entry slice lengths at load time; anything
// larger is nonsense, not a real instance.
const maxSnapshotDim = 1 << 26

// SnapshotReport describes one load: how many entries were restored into
// the cache and how many were rejected (CRC mismatch, torn frame,
// structural nonsense).
type SnapshotReport struct {
	Restored int64
	Skipped  int64
}

// snapshotEntry is one entry's frame payload: its key and the parts of its
// canonical solution a cache hit serves.
type snapshotEntry struct {
	Key         string    `json:"key"`
	Algorithm   string    `json:"algorithm"`
	Profit      int64     `json:"profit"`
	UpperBound  float64   `json:"upper_bound"`
	Orientation []float64 `json:"orientation"`
	Owner       []int     `json:"owner"`
}

// lruEntries lists the live entries in LRU→MRU order, so restoring them
// in file order with putLocked (which pushes to the front) rebuilds the
// same recency order. Entries are immutable, so the list is safe to read
// after the lock is released.
func (c *Cache) lruEntries() []*entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*entry, 0, c.ll.Len())
	for e := c.ll.Back(); e != nil; e = e.Prev() {
		out = append(out, e.Value.(*entry))
	}
	return out
}

// snapshotEntry returns e's frame payload, with its owners widened into
// owners[:0]. The payload is the same whether e is packed or wide.
func (e *entry) snapshotEntry(owners []int) snapshotEntry {
	owners = owners[:0]
	if e.packed == nil {
		owners = append(owners, e.sol.Assignment.Owner...)
	}
	for _, v := range e.packed {
		owners = append(owners, int(v)-1)
	}
	return snapshotEntry{
		Key:         e.key,
		Algorithm:   e.sol.Algorithm,
		Profit:      e.sol.Profit,
		UpperBound:  e.sol.UpperBound,
		Orientation: e.sol.Assignment.Orientation,
		Owner:       owners,
	}
}

// WriteSnapshot streams a snapshot of the current entries to w and returns
// the number of entries written. The entries are listed under the lock
// first; the (possibly slow) widening and writing happen unlocked, one
// entry at a time, so a periodic flush never stalls serving.
func (c *Cache) WriteSnapshot(w io.Writer) (int, error) {
	entries := c.lruEntries()
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(faultfs.AppendHeader(nil, snapshotMagic, snapshotVersion, fingerprintVersion, uint64(len(entries)))); err != nil {
		return 0, err
	}
	var frame []byte
	var owners []int
	for _, e := range entries {
		se := e.snapshotEntry(owners)
		owners = se.Owner
		payload, err := json.Marshal(se)
		if err != nil {
			return 0, fmt.Errorf("snapshot entry %s: %w", e.key, err)
		}
		frame = faultfs.AppendFrame(frame[:0], payload)
		if _, err := bw.Write(frame); err != nil {
			return 0, err
		}
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	return len(entries), nil
}

// SaveSnapshot writes the snapshot to path atomically through fsys
// (faultfs.WriteFileAtomic: temp file, fsync, rename, directory fsync). On
// any error the previous snapshot at path is untouched.
func (c *Cache) SaveSnapshot(fsys faultfs.FS, path string) (int, error) {
	var n int
	err := faultfs.WriteFileAtomic(fsys, path, func(w io.Writer) (err error) {
		n, err = c.WriteSnapshot(w)
		return err
	})
	return n, err
}

// checkSnapshotEntry is the structural gate every restored entry passes.
func checkSnapshotEntry(e *snapshotEntry) error {
	m := len(e.Orientation)
	switch {
	case len(e.Key) != 64 || strings.Trim(e.Key, "0123456789abcdef") != "":
		return fmt.Errorf("key %q is not a hex fingerprint", e.Key)
	case e.Profit < 0 || math.IsNaN(e.UpperBound) || e.UpperBound < 0:
		return fmt.Errorf("invalid profit %d or upper bound %v", e.Profit, e.UpperBound)
	case m > maxSnapshotDim || len(e.Owner) > maxSnapshotDim:
		return fmt.Errorf("dimensions %d×%d beyond sanity cap", m, len(e.Owner))
	}
	for j, a := range e.Orientation {
		if math.IsNaN(a) {
			return fmt.Errorf("orientation[%d] is NaN", j)
		}
	}
	for i, o := range e.Owner {
		if o != model.Unassigned && (o < 0 || o >= m) {
			return fmt.Errorf("owner[%d] = %d out of range [0,%d)", i, o, m)
		}
	}
	return nil
}

// ReadSnapshot restores entries from r into the cache. The envelope (magic
// and both versions) must match exactly — a stale snapshot from an older
// layout or fingerprint scheme is rejected whole, because its keys could
// silently alias different solves. Per-entry failures (bad CRC, structural
// nonsense) skip that entry and are counted in the report; a torn frame
// ends the load and counts every entry the header promised but the file
// no longer holds.
func (c *Cache) ReadSnapshot(r io.Reader) (SnapshotReport, error) {
	var rep SnapshotReport
	br := bufio.NewReader(r)
	h, err := faultfs.ReadHeader(br, snapshotMagic, 3)
	if err != nil {
		return rep, fmt.Errorf("not a cache snapshot: %w", err)
	}
	ver, fpv, count := h[0], h[1], h[2]
	if ver != snapshotVersion {
		return rep, fmt.Errorf("unsupported snapshot version %d (want %d)", ver, snapshotVersion)
	}
	if fpv != fingerprintVersion {
		return rep, fmt.Errorf("snapshot fingerprint version %d does not match this build's %d; keys would alias different solves", fpv, fingerprintVersion)
	}
	if count > math.MaxInt64 {
		return rep, fmt.Errorf("snapshot entry count %d is implausible", count)
	}
	for k := uint64(0); k < count; k++ {
		payload, intact, err := faultfs.ReadFrame(br)
		if err != nil {
			// Torn tail: every remaining promised entry is lost.
			rep.Skipped += int64(count - k)
			break
		}
		var e snapshotEntry
		// A bit-rotted frame was still read whole, so it costs itself, not
		// the rest.
		if !intact || json.Unmarshal(payload, &e) != nil || checkSnapshotEntry(&e) != nil {
			rep.Skipped++
			continue
		}
		c.restore(e.Key, model.Solution{
			Algorithm:  e.Algorithm,
			Profit:     e.Profit,
			UpperBound: e.UpperBound,
			Assignment: &model.Assignment{Orientation: e.Orientation, Owner: e.Owner},
		})
		rep.Restored++
	}
	return rep, nil
}

// LoadSnapshot reads the snapshot at path through fsys into the cache. A
// missing file is not an error — it is a cold start — and returns a zero
// report with os.ErrNotExist wrapped for callers that care.
func (c *Cache) LoadSnapshot(fsys faultfs.FS, path string) (SnapshotReport, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return SnapshotReport{}, err
	}
	defer f.Close()
	return c.ReadSnapshot(f)
}

// restore inserts a snapshot entry, packed like a live store. Restores
// count separately from live stores and never overwrite an entry a request
// already populated (the live entry is at least as fresh).
func (c *Cache) restore(key string, sol model.Solution) {
	e := newEntry(key, sol)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		return
	}
	c.putLocked(e, &c.restored)
}
