package cache

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"sectorpack/internal/core"
	"sectorpack/internal/faultfs"
	"sectorpack/internal/model"
)

// snapshotEntries returns every live entry's snapshot payload, in the
// order WriteSnapshot writes them.
func (c *Cache) snapshotEntries() []snapshotEntry {
	var out []snapshotEntry
	for _, e := range c.lruEntries() {
		out = append(out, e.snapshotEntry(nil))
	}
	return out
}

// ownersInstance builds an n-customer, m-antenna instance whose customers
// and antennas are pairwise distinct, so the canonical order is total and
// a permuted copy remaps each owner to exactly one customer. The antennas
// are out of canonical order, so the remap of owners is not the identity.
func ownersInstance(n, m int, rng *rand.Rand) *model.Instance {
	in := &model.Instance{Variant: model.Sectors}
	for i := 0; i < n; i++ {
		in.Customers = append(in.Customers, model.Customer{
			Theta:  2 * math.Pi * (float64(i) + 0.5*rng.Float64()) / float64(n),
			R:      1 + rng.Float64(),
			Demand: 1 + rng.Int63n(5),
		})
	}
	for _, rank := range rng.Perm(m) {
		in.Antennas = append(in.Antennas, model.Antenna{Rho: 0.01 * float64(rank+1), Capacity: int64(n)})
	}
	return in.Normalize()
}

// ownersSolution draws an assignment for in: orientations in [0, 2π) and
// owners in [−1, m), with Unassigned and m−1 always among them when n > 1.
func ownersSolution(in *model.Instance, rng *rand.Rand) model.Solution {
	n, m := in.N(), in.M()
	as := &model.Assignment{Orientation: make([]float64, m), Owner: make([]int, n)}
	for j := range as.Orientation {
		as.Orientation[j] = 2 * math.Pi * rng.Float64()
	}
	for i := range as.Owner {
		as.Owner[i] = rng.Intn(m+1) - 1
	}
	as.Owner[0] = model.Unassigned
	as.Owner[n-1] = m - 1
	return model.Solution{Assignment: as, Profit: 7, Algorithm: "greedy", UpperBound: 9.5}
}

// permuteCustomers returns a copy of in whose k-th customer is in's
// perm[k]-th.
func permuteCustomers(in *model.Instance, perm []int) *model.Instance {
	out := in.Clone()
	for k, i := range perm {
		out.Customers[k] = in.Customers[i]
	}
	return out.Normalize()
}

func storedEntry(t testing.TB, c *Cache, key string) *entry {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		t.Fatalf("no entry for %s", key)
	}
	return e.Value.(*entry)
}

// TestCachePackedHitBitIdentical: at m = 255 the entry packs its owners
// into bytes and at m = 256 it keeps them wide; either way a hit, through
// Get or GetOrSolve, is the stored answer bit for bit, and entrySize
// charges the width the entry holds.
func TestCachePackedHitBitIdentical(t *testing.T) {
	for _, m := range []int{1, maxPackedAntennas, maxPackedAntennas + 1} {
		t.Run(fmt.Sprintf("m%d", m), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(m)))
			in := ownersInstance(300, m, rng)
			sol := ownersSolution(in, rng)
			opt := core.Options{Seed: 1}
			fp := mustFingerprint(t, in, opt, "greedy")
			c := New(0)
			c.Put(fp, sol)

			e := storedEntry(t, c, fp.Key())
			if packed := m <= maxPackedAntennas; (e.packed != nil) != packed || (e.sol.Assignment.Owner == nil) != packed {
				t.Fatalf("m=%d: packed %d owners, wide %d owners", m, len(e.packed), len(e.sol.Assignment.Owner))
			}
			width := int64(8)
			if e.packed != nil {
				width = 1
			}
			if want := int64(len(fp.Key())+128) + int64(m)*8 + int64(in.N())*width + int64(len("greedy")); e.size != want || c.Stats().Bytes != want {
				t.Fatalf("entry charged %d (cache holds %d), want %d", e.size, c.Stats().Bytes, want)
			}

			got, ok := c.Get(fp)
			if !ok {
				t.Fatal("stored entry missed")
			}
			if solutionString(got) != solutionString(sol) || math.Float64bits(got.UpperBound) != math.Float64bits(sol.UpperBound) {
				t.Fatalf("Get drifted:\n got  %s\n want %s", solutionString(got), solutionString(sol))
			}
			got, out, err := c.GetOrSolve(context.Background(), fp, func(context.Context) (model.Solution, error) {
				t.Error("hit ran the solve")
				return model.Solution{}, nil
			})
			if err != nil || out != Hit || solutionString(got) != solutionString(sol) {
				t.Fatalf("GetOrSolve: outcome %v err %v\n got  %s\n want %s", out, err, solutionString(got), solutionString(sol))
			}
		})
	}
}

// TestCacheHitAllocations pins a hit at three allocations, packed or
// wide: the assignment, its orientations and its owners, as before owners
// were packed.
func TestCacheHitAllocations(t *testing.T) {
	for _, m := range []int{3, maxPackedAntennas + 1} {
		rng := rand.New(rand.NewSource(int64(m)))
		in := ownersInstance(200, m, rng)
		sol := ownersSolution(in, rng)
		fp := mustFingerprint(t, in, core.Options{Seed: 1}, "greedy")
		c := New(0)
		c.Put(fp, sol)
		if got := int(testing.AllocsPerRun(100, func() { c.Get(fp) })); got != 3 {
			t.Errorf("m=%d: Get hit allocates %d times, want 3", m, got)
		}
		if got := int(testing.AllocsPerRun(100, func() {
			c.GetOrSolve(context.Background(), fp, func(context.Context) (model.Solution, error) { return sol, nil })
		})); got != 3 {
			t.Errorf("m=%d: GetOrSolve hit allocates %d times, want 3", m, got)
		}
	}
}

// TestSnapshotOfPackedEntriesMatchesWide: a snapshot written from packed
// entries is byte for byte the one encoded from the wide canonical
// solutions, so the snapshot format is independent of the entry layout.
func TestSnapshotOfPackedEntriesMatchesWide(t *testing.T) {
	c := New(0)
	want := faultfs.AppendHeader(nil, snapshotMagic, snapshotVersion, fingerprintVersion, 3)
	for k, m := range []int{4, maxPackedAntennas, maxPackedAntennas + 1} {
		rng := rand.New(rand.NewSource(int64(k)))
		in := ownersInstance(40, m, rng)
		sol := ownersSolution(in, rng)
		fp := mustFingerprint(t, in, core.Options{Seed: 1}, "greedy")
		c.Put(fp, sol)
		canon := fp.toCanonical(sol)
		payload, err := json.Marshal(snapshotEntry{
			Key:         fp.Key(),
			Algorithm:   canon.Algorithm,
			Profit:      canon.Profit,
			UpperBound:  canon.UpperBound,
			Orientation: canon.Assignment.Orientation,
			Owner:       canon.Assignment.Owner,
		})
		if err != nil {
			t.Fatal(err)
		}
		want = faultfs.AppendFrame(want, payload)
	}
	var got bytes.Buffer
	if n, err := c.WriteSnapshot(&got); err != nil || n != 3 {
		t.Fatalf("WriteSnapshot: %d entries, %v", n, err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("snapshot of packed entries differs from the wide encoding (%d vs %d bytes)", got.Len(), len(want))
	}

	// Restoring packs again: the reloaded cache writes the same bytes.
	fresh := New(0)
	if rep, err := fresh.ReadSnapshot(bytes.NewReader(want)); err != nil || rep.Restored != 3 {
		t.Fatalf("restore: %+v, %v", rep, err)
	}
	for _, e := range fresh.lruEntries() {
		if packed := len(e.sol.Assignment.Orientation) <= maxPackedAntennas; (e.packed != nil) != packed {
			t.Fatalf("restored m=%d entry packed=%v", len(e.sol.Assignment.Orientation), e.packed != nil)
		}
	}
	var again bytes.Buffer
	if _, err := fresh.WriteSnapshot(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), want) {
		t.Fatal("restored cache writes a different snapshot")
	}
}

// FuzzCacheRoundTrip: for any n, m in [1, 300], owners in [−1, m) and a
// customer permutation, Put then Get returns exactly the stored
// assignment, and Get under the permuted duplicate's fingerprint returns
// it permuted.
func FuzzCacheRoundTrip(f *testing.F) {
	f.Add(int64(1), uint16(1), uint16(1))
	f.Add(int64(2), uint16(300), uint16(255))
	f.Add(int64(3), uint16(17), uint16(256))
	f.Add(int64(4), uint16(250), uint16(300))
	f.Fuzz(func(t *testing.T, seed int64, n16, m16 uint16) {
		n, m := 1+int(n16)%300, 1+int(m16)%300
		rng := rand.New(rand.NewSource(seed))
		in := ownersInstance(n, m, rng)
		sol := ownersSolution(in, rng)
		opt := core.Options{Seed: 1}
		c := New(0)
		c.Put(mustFingerprint(t, in, opt, "greedy"), sol)

		got, ok := c.Get(mustFingerprint(t, in, opt, "greedy"))
		if !ok {
			t.Fatal("stored entry missed")
		}
		if !slices.Equal(got.Assignment.Owner, sol.Assignment.Owner) || !slices.Equal(got.Assignment.Orientation, sol.Assignment.Orientation) {
			t.Fatalf("n=%d m=%d: round trip drifted:\n got  %v\n want %v", n, m, got.Assignment, sol.Assignment)
		}

		perm := rng.Perm(n)
		got, ok = c.Get(mustFingerprint(t, permuteCustomers(in, perm), opt, "greedy"))
		if !ok {
			t.Fatal("permuted duplicate missed")
		}
		for k, i := range perm {
			if got.Assignment.Owner[k] != sol.Assignment.Owner[i] {
				t.Fatalf("n=%d m=%d: permuted customer %d (was %d) owned by %d, want %d",
					n, m, k, i, got.Assignment.Owner[k], sol.Assignment.Owner[i])
			}
		}
		if !slices.Equal(got.Assignment.Orientation, sol.Assignment.Orientation) {
			t.Fatalf("n=%d m=%d: permuted orientations drifted", n, m)
		}
	})
}
