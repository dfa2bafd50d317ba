package cache

import (
	"container/list"
	"context"
	"expvar"
	"sync"

	"sectorpack/internal/metric"
	"sectorpack/internal/model"
)

// DefaultMaxBytes is the cache budget when New is given zero.
const DefaultMaxBytes = 64 << 20

// Outcome reports how GetOrSolve produced its result.
type Outcome int

const (
	// Miss: no cached entry and no in-flight solve; the caller's solve
	// function ran and (on success) populated the cache.
	Miss Outcome = iota
	// Hit: served from the stored entry without solving.
	Hit
	// Collapsed: an identical solve was already in flight; this call
	// waited for it instead of solving (the singleflight path).
	Collapsed
)

func (o Outcome) String() string {
	switch o {
	case Miss:
		return "miss"
	case Hit:
		return "hit"
	case Collapsed:
		return "collapsed"
	default:
		return "unknown"
	}
}

// flight is one in-progress solve that concurrent identical requests
// attach to. sol is stored in canonical coordinates so followers with a
// permuted (but fingerprint-identical) instance can remap it; the fields
// are written exactly once before done is closed.
type flight struct {
	done chan struct{}
	sol  model.Solution
	ok   bool // sol is valid (solve succeeded)
	err  error
}

// maxPackedAntennas is the largest antenna count whose owners an entry
// packs into one byte apiece: the byte holds owner+1, and 0 stands for
// model.Unassigned.
const maxPackedAntennas = 255

// entry is one stored solution, in canonical coordinates. Immutable once
// built, so a hit remaps it after releasing Cache.mu. When the instance
// has at most maxPackedAntennas antennas the owners live in packed and
// sol.Assignment holds only the orientations; otherwise packed is nil and
// sol.Assignment.Owner keeps them wide.
type entry struct {
	key    string
	sol    model.Solution
	packed []byte
	size   int64
}

// newEntry builds the entry that stores canon under key, packing its
// owners when they fit in a byte. canon is not modified.
func newEntry(key string, canon model.Solution) *entry {
	e := &entry{key: key, sol: canon, size: entrySize(key, canon)}
	as := canon.Assignment
	if len(as.Orientation) <= maxPackedAntennas {
		e.packed = make([]byte, len(as.Owner))
		for k, o := range as.Owner {
			e.packed[k] = byte(o + 1)
		}
		e.sol.Assignment = &model.Assignment{Orientation: as.Orientation}
	}
	return e
}

// entrySize approximates the memory footprint of the entry newEntry
// builds, for the byte budget.
func entrySize(key string, sol model.Solution) int64 {
	size := int64(len(key)) + 128 // struct, map, and list overhead
	if as := sol.Assignment; as != nil {
		owner := int64(8)
		if len(as.Orientation) <= maxPackedAntennas {
			owner = 1
		}
		size += int64(len(as.Orientation))*8 + int64(len(as.Owner))*owner
	}
	size += int64(len(sol.Algorithm) + len(sol.SolverUsed) + len(sol.FallbackReason) + len(sol.FallbackDetail))
	return size
}

// Cache is a byte-bounded LRU of verified solutions keyed by Fingerprint,
// with singleflight collapse of concurrent identical solves. All methods
// are safe for concurrent use.
type Cache struct {
	// mu guards the map/list bookkeeping. Solves themselves run outside
	// the lock.
	mu       sync.Mutex
	maxBytes int64                    // immutable after New
	bytes    int64                    // guarded by mu
	ll       *list.List               // guarded by mu (front = most recently used)
	entries  map[string]*list.Element // guarded by mu
	flights  map[string]*flight       // guarded by mu

	hits      metric.Counter // lookups answered from the map
	misses    metric.Counter // lookups that fell through to a solve
	evictions metric.Counter // entries dropped under byte pressure
	collapsed metric.Counter // callers that joined an in-flight solve
	stores    metric.Counter // live entries inserted
	restored  metric.Counter // entries warm-loaded from a snapshot (snapshot.go)
}

// New returns a cache bounded to maxBytes of stored solutions; zero means
// DefaultMaxBytes.
func New(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	return &Cache{
		maxBytes: maxBytes,
		ll:       list.New(),
		entries:  map[string]*list.Element{},
		flights:  map[string]*flight{},
	}
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Collapsed int64 `json:"collapsed"`
	Stores    int64 `json:"stores"`
	Restored  int64 `json:"restored"`
	Bytes     int64 `json:"bytes"`
	Entries   int64 `json:"entries"`
}

// Stats returns the current counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits.Value(),
		Misses:    c.misses.Value(),
		Evictions: c.evictions.Value(),
		Collapsed: c.collapsed.Value(),
		Stores:    c.stores.Value(),
		Restored:  c.restored.Value(),
		Bytes:     c.bytes,
		Entries:   int64(c.ll.Len()),
	}
}

// Publish sets the cache metrics in m, each name prefixed with prefix. m
// is the embedding server's own map, not the global expvar registry
// (publishing panics on duplicate names, and tests build many caches per
// process).
func (c *Cache) Publish(m *expvar.Map, prefix string) {
	m.Set(prefix+"hits", &c.hits)
	m.Set(prefix+"misses", &c.misses)
	m.Set(prefix+"evictions", &c.evictions)
	m.Set(prefix+"collapsed", &c.collapsed)
	m.Set(prefix+"stores", &c.stores)
	m.Set(prefix+"restored", &c.restored)
	m.Set(prefix+"bytes", expvar.Func(func() any { c.mu.Lock(); defer c.mu.Unlock(); return c.bytes }))
	m.Set(prefix+"entries", expvar.Func(func() any { c.mu.Lock(); defer c.mu.Unlock(); return c.ll.Len() }))
}

// Get returns the cached solution for fp, remapped into fp's instance
// coordinates, without solving. The returned assignment is freshly
// allocated — callers may mutate it freely.
func (c *Cache) Get(fp *Fingerprint) (model.Solution, bool) {
	c.mu.Lock()
	if sol, ok := c.serveLocked(fp); ok {
		return sol, true
	}
	c.misses.Add(1)
	c.mu.Unlock()
	return model.Solution{}, false
}

// serveLocked answers fp from its stored entry. On a hit it marks the
// entry most recently used, counts the hit, releases c.mu and returns the
// entry remapped into fp's coordinates; on a miss it returns false with
// c.mu still held.
//
//sectorlint:locked Cache.mu
func (c *Cache) serveLocked(fp *Fingerprint) (model.Solution, bool) {
	e, ok := c.entries[fp.key]
	if !ok {
		return model.Solution{}, false
	}
	c.ll.MoveToFront(e)
	c.hits.Add(1)
	c.mu.Unlock()
	return fp.fromEntry(e.Value.(*entry)), true
}

// Put stores a solution for fp, converting it to canonical coordinates.
// Degraded solutions are rejected: they are artifacts of one request's
// failure, not properties of the instance, and must never be replayed.
func (c *Cache) Put(fp *Fingerprint, sol model.Solution) {
	if sol.Degraded() || sol.Assignment == nil {
		return
	}
	e := newEntry(fp.key, fp.toCanonical(sol))
	c.mu.Lock()
	c.putLocked(e, &c.stores)
	c.mu.Unlock()
}

// Delete removes the entry for key, if present. The serving layer uses it
// to drop an entry that failed the re-verification gate.
func (c *Cache) Delete(key string) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.removeLocked(e)
	}
	c.mu.Unlock()
}

// putLocked inserts or refreshes an entry and evicts from the LRU tail
// until the byte budget holds. An entry larger than the whole budget is
// not stored at all. counter distinguishes live stores from snapshot
// restores in the metrics.
//
//sectorlint:locked Cache.mu
func (c *Cache) putLocked(e *entry, counter *metric.Counter) {
	if e.size > c.maxBytes {
		return
	}
	if old, ok := c.entries[e.key]; ok {
		c.removeLocked(old) // replacement, not eviction pressure
	}
	c.entries[e.key] = c.ll.PushFront(e)
	c.bytes += e.size
	counter.Add(1)
	for c.bytes > c.maxBytes {
		back := c.ll.Back()
		if back == nil {
			break
		}
		c.removeLocked(back)
		c.evictions.Add(1)
	}
}

//sectorlint:locked Cache.mu
func (c *Cache) removeLocked(e *list.Element) {
	ent := e.Value.(*entry)
	c.ll.Remove(e)
	delete(c.entries, ent.key)
	c.bytes -= ent.size
}

// GetOrSolve returns the cached solution for fp, or runs solve exactly
// once per key across concurrent callers (singleflight) and caches its
// verified result. The solve function receives the caller's ctx and must
// return a solution already gated by the caller's verification; the cache
// stores whatever a successful solve returns (except degraded solutions).
//
// On a Miss the returned solution is the solve function's result,
// untouched — bit-identical to an uncached call. On a Hit or Collapsed
// outcome the stored canonical solution is remapped into fp's coordinates.
// A follower whose ctx expires before the leader finishes returns its own
// ctx error without waiting further.
func (c *Cache) GetOrSolve(ctx context.Context, fp *Fingerprint, solve func(ctx context.Context) (model.Solution, error)) (model.Solution, Outcome, error) {
	c.mu.Lock()
	if sol, ok := c.serveLocked(fp); ok {
		return sol, Hit, nil
	}
	if fl, ok := c.flights[fp.key]; ok {
		c.collapsed.Add(1)
		c.mu.Unlock()
		select {
		case <-fl.done:
			if !fl.ok {
				return model.Solution{}, Collapsed, fl.err
			}
			return fp.fromCanonical(fl.sol), Collapsed, nil
		case <-ctx.Done():
			return model.Solution{}, Collapsed, ctx.Err()
		}
	}
	c.misses.Add(1)
	fl := &flight{done: make(chan struct{})}
	c.flights[fp.key] = fl
	c.mu.Unlock()

	sol, err := solve(ctx)
	store := err == nil && !sol.Degraded() && sol.Assignment != nil
	var canon model.Solution
	if store {
		canon = fp.toCanonical(sol)
	}
	c.mu.Lock()
	delete(c.flights, fp.key)
	if store {
		// Packed under the lock: building the entry before it would grow
		// this frame, which sits under every solve (DESIGN.md,
		// "Stack-alignment hazard").
		c.putLocked(newEntry(fp.key, canon), &c.stores)
	}
	c.mu.Unlock()
	if store {
		fl.sol, fl.ok = canon, true
	} else {
		fl.err = err
		if err == nil {
			// Success that is not cacheable (degraded): followers still
			// deserve the answer.
			fl.sol, fl.ok = fp.toCanonical(sol), true
		}
	}
	close(fl.done)
	return sol, Miss, err
}
