// Package cache provides the solve cache for repeated sector-packing
// instances: a canonical, order-insensitive fingerprint of
// (Instance, Options, solver) and a byte-bounded LRU of verified Solutions
// with singleflight collapse, so N concurrent identical requests cost one
// underlying solve.
//
// The fingerprint is computed over a *canonical form* of the instance:
// customers and antennas are sorted by their semantic fields (IDs and the
// cosmetic Name are excluded, and the encodings of "unbounded range" all
// hash identically), and the sorted fields are written into one buffer as
// a length-prefixed, fixed-order binary serialization with floats spelled
// as their IEEE-754 bit patterns and hashed with one SHA-256 call —
// canonical like sorted-key JSON, but compact and cheap, because the
// fingerprint is paid on every cached request and must stay far cheaper
// than the cheapest solver. Two instances that differ only by a
// permutation of their customer or antenna slices share a key, while
// flipping any Options field, any demand unit, or the solver name changes
// it.
//
// Because solutions are expressed in slice coordinates, the cache stores
// them in canonical coordinates and each Fingerprint carries the
// permutation that maps its own instance onto the canonical form. A solve
// cached from one ordering is served to a permuted duplicate by remapping
// through both permutations; for the *same* ordering the round trip is the
// identity, so a cache hit is bit-identical to the fresh solve that
// populated it (the differential tests in this package enforce exactly
// that).
package cache

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"

	"sectorpack/internal/cols"
	"sectorpack/internal/core"
	"sectorpack/internal/model"
)

// fingerprintVersion is bumped whenever the canonical document changes
// shape, so stale keys from older builds can never alias new ones.
const fingerprintVersion = 2

// Fingerprint identifies one (instance, options, solver) solve and carries
// the canonicalization permutations needed to move solutions between the
// instance's coordinates and the cache's canonical coordinates.
type Fingerprint struct {
	key string
	// cust[k] is the original index of the k-th customer in canonical
	// order; ant likewise for antennas.
	cust []int
	ant  []int
}

// Key returns the hex SHA-256 cache key.
func (f *Fingerprint) Key() string { return f.key }

// doc is the canonical document being built: every field is appended in
// a fixed order as 8 little-endian bytes, strings are length-prefixed, so
// the encoding is injective and stable across runs and builds. The whole
// document is hashed with one sha256.Sum256.
type doc []byte

func (w *doc) u64(v uint64) { *w = binary.LittleEndian.AppendUint64(*w, v) }

func (w *doc) i64(v int64) { w.u64(uint64(v)) }

// float spells a float as its IEEE-754 bit pattern: exact, total, and
// immune to formatting round trips. Instances are validated NaN-free, so
// bit equality coincides with semantic equality here.
func (w *doc) float(x float64) { w.u64(math.Float64bits(x)) }

func (w *doc) bool(b bool) {
	if b {
		w.u64(1)
	} else {
		w.u64(0)
	}
}

func (w *doc) str(s string) {
	w.u64(uint64(len(s)))
	*w = append(*w, s...)
}

func (w doc) key() string {
	sum := sha256.Sum256(w)
	return hex.EncodeToString(sum[:])
}

// options hashes every core.Options field. A new field added to
// core.Options (or its nested structs) MUST be added here, or identical
// keys would alias solves with different semantics;
// TestFingerprintSensitiveToEveryOptionsField walks core.Options by
// reflection and fails when a field does not move the key.
func (w *doc) options(opt core.Options) {
	w.float(opt.Knapsack.Eps)
	w.i64(opt.ExactLimits.MaxTuples)
	w.i64(opt.Seed)
	w.bool(opt.SkipBound)
}

// RoutingKey returns the canonical fingerprint key of (instance, options,
// solver) without retaining the coordinate permutations — the form a
// request router needs. Consistent-hash routing on this key sends every
// repeat (and every permuted duplicate) of a solve to the same shard, so
// that shard's LRU stays hot and its singleflight collapses the
// fleet-wide duplicates; the key is identical to the one the daemon's own
// cache uses, by construction.
func RoutingKey(in *model.Instance, opt core.Options, solver string) (string, error) {
	f, err := NewFingerprint(in, opt, solver)
	if err != nil {
		return "", err
	}
	return f.Key(), nil
}

// NewFingerprint canonicalizes and hashes one solve. The instance must be
// normalized and valid (the callers — daemon, CLI, tests — validate before
// solving); the error return is reserved for future canonicalization
// failures and is currently always nil.
func NewFingerprint(in *model.Instance, opt core.Options, solver string) (*Fingerprint, error) {
	cs, as := in.Customers, in.Antennas
	f := &Fingerprint{
		cust: customerOrder(cs),
		ant:  make([]int, len(as)),
	}
	for j := range f.ant {
		f.ant[j] = j
	}
	// The canonical sort orders by exact float values on purpose: the
	// fingerprint hashes IEEE-754 bit patterns, so two instances hash alike
	// iff their sorted field streams are bit-identical — an Eps-tolerant
	// comparator would make the canonical order (and thus the key) depend
	// on which permutation arrived first.
	slices.SortStableFunc(f.ant, func(a, b int) int {
		x, y := as[a], as[b]
		if c := cmp.Compare(x.Rho, y.Rho); c != 0 {
			return c
		}
		// EffRange folds the two unbounded encodings (<= 0 and +Inf)
		// together so semantically identical antennas sort and hash alike.
		if c := cmp.Compare(x.EffRange(), y.EffRange()); c != 0 {
			return c
		}
		if c := cmp.Compare(x.Capacity, y.Capacity); c != 0 {
			return c
		}
		return cmp.Compare(x.MinRange, y.MinRange)
	})

	w := make(doc, 0, 8*(9+4*len(cs)+4*len(as))+len(solver))
	w.i64(fingerprintVersion)
	w.str(solver)
	w.options(opt)
	w.i64(int64(in.Variant))
	w.i64(int64(len(cs)))
	for _, i := range f.cust {
		c := &cs[i]
		w.float(c.Theta)
		w.float(c.R)
		w.i64(c.Demand)
		w.i64(c.Profit)
	}
	w.i64(int64(len(as)))
	for _, j := range f.ant {
		a := &as[j]
		w.float(a.Rho)
		w.float(a.EffRange())
		w.i64(a.Capacity)
		w.float(a.MinRange)
	}
	f.key = w.key()
	return f, nil
}

// compareCustomers is the customers' canonical comparator: by θ, R,
// Demand and Profit, each by exact value.
func compareCustomers(x, y *model.Customer) int {
	if c := cmp.Compare(x.Theta, y.Theta); c != 0 {
		return c
	}
	if c := cmp.Compare(x.R, y.R); c != 0 {
		return c
	}
	if c := cmp.Compare(x.Demand, y.Demand); c != 0 {
		return c
	}
	return cmp.Compare(x.Profit, y.Profit)
}

// customerOrder returns the customers' canonical order: the indices
// sorted stably by compareCustomers. It sorts (θ key, index) pairs, whose
// order is total, and re-sorts by compareCustomers only the runs of equal
// θ. cols.SortKey orders like cmp.Compare on θ, ±0 tie included, so the
// result is the stable sort's.
func customerOrder(cs []model.Customer) []int {
	type pair struct {
		key uint64
		i   int
	}
	pairs := make([]pair, len(cs))
	for i := range cs {
		pairs[i] = pair{cols.SortKey(cs[i].Theta), i}
	}
	slices.SortFunc(pairs, func(a, b pair) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.i, b.i)
	})
	order := make([]int, len(cs))
	for k, p := range pairs {
		order[k] = p.i
	}
	for lo := 0; lo < len(pairs); {
		hi := lo + 1
		for hi < len(pairs) && pairs[hi].key == pairs[lo].key {
			hi++
		}
		if hi-lo > 1 {
			slices.SortStableFunc(order[lo:hi], func(a, b int) int {
				return compareCustomers(&cs[a], &cs[b])
			})
		}
		lo = hi
	}
	return order
}

// toCanonical re-expresses a solution produced in this fingerprint's
// instance coordinates in canonical coordinates. The assignment slices are
// freshly allocated; the input is not modified.
func (f *Fingerprint) toCanonical(sol model.Solution) model.Solution {
	if sol.Assignment == nil {
		return sol
	}
	antToCanon := make([]int, len(f.ant))
	for k, j := range f.ant {
		antToCanon[j] = k
	}
	as := &model.Assignment{
		Orientation: make([]float64, len(f.ant)),
		Owner:       make([]int, len(f.cust)),
	}
	for k, j := range f.ant {
		as.Orientation[k] = sol.Assignment.Orientation[j]
	}
	for k, i := range f.cust {
		owner := sol.Assignment.Owner[i]
		if owner == model.Unassigned {
			as.Owner[k] = model.Unassigned
		} else {
			as.Owner[k] = antToCanon[owner]
		}
	}
	sol.Assignment = as
	return sol
}

// fromCanonical re-expresses a canonical-coordinate solution in this
// fingerprint's instance coordinates. For the ordering that produced the
// cached entry this inverts toCanonical exactly, so a hit reproduces the
// original solve bit for bit; for a permuted duplicate it yields the
// equivalent permuted assignment (same profit, same served multiset).
func (f *Fingerprint) fromCanonical(sol model.Solution) model.Solution {
	if sol.Assignment == nil {
		return sol
	}
	as := f.orientFromCanonical(sol.Assignment.Orientation)
	for k, i := range f.cust {
		owner := sol.Assignment.Owner[k]
		if owner == model.Unassigned {
			as.Owner[i] = model.Unassigned
		} else {
			as.Owner[i] = f.ant[owner]
		}
	}
	sol.Assignment = as
	return sol
}

// fromEntry is fromCanonical for a stored entry: packed owners are
// widened straight into the fresh assignment, so serving a packed entry
// allocates no more than serving a wide one.
func (f *Fingerprint) fromEntry(e *entry) model.Solution {
	if e.packed == nil {
		return f.fromCanonical(e.sol)
	}
	sol := e.sol
	as := f.orientFromCanonical(sol.Assignment.Orientation)
	for k, i := range f.cust {
		if v := e.packed[k]; v == 0 {
			as.Owner[i] = model.Unassigned
		} else {
			as.Owner[i] = f.ant[v-1]
		}
	}
	sol.Assignment = as
	return sol
}

// orientFromCanonical allocates an assignment in this fingerprint's
// instance coordinates, with the canonical orientations moved into place
// and the owners left for the caller to fill.
func (f *Fingerprint) orientFromCanonical(orientation []float64) *model.Assignment {
	as := &model.Assignment{
		Orientation: make([]float64, len(f.ant)),
		Owner:       make([]int, len(f.cust)),
	}
	for k, j := range f.ant {
		as.Orientation[j] = orientation[k]
	}
	return as
}
