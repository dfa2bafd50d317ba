package angular

import (
	"math/rand"
	"sort"
	"testing"

	"sectorpack/internal/geom"
	"sectorpack/internal/model"
)

// forEachWindow calls fn for every distinct candidate window of the sweep
// with the customer indices inside [alpha, alpha+rho], in sweep order.
// Returning false stops the enumeration early.
func forEachWindow(s *Sweep, fn func(alpha float64, ids []int) bool) {
	n := s.Len()
	s.forEachRange(func(start, count int, alpha float64) bool {
		ids := make([]int, 0, count)
		for k := start; k < start+count; k++ {
			ids = append(ids, int(s.ids[k%n]))
		}
		return fn(alpha, ids)
	})
}

// windowSets returns every candidate window as (alpha, member ids) pairs
// with the active mask applied: the materialized reference of the windows
// BestWindow streams.
func windowSets(s *Sweep, active []bool) (alphas []float64, members [][]int) {
	forEachWindow(s, func(alpha float64, ids []int) bool {
		kept := make([]int, 0, len(ids))
		for _, i := range ids {
			if active == nil || active[i] {
				kept = append(kept, i)
			}
		}
		alphas = append(alphas, alpha)
		members = append(members, kept)
		return true
	})
	return alphas, members
}

// TestSweepMatchesCoveredScan cross-checks the rotating sweep against the
// naive per-candidate scan on random general-position instances.
func TestSweepMatchesCoveredScan(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 60; trial++ {
		in := randInstance(rng, 1+rng.Intn(30), 1, model.Sectors)
		sw := NewEngine(in).Sweep(0)
		seen := 0
		forEachWindow(sw, func(alpha float64, ids []int) bool {
			seen++
			want := scanCovered(in, 0, alpha, nil)
			got := append([]int(nil), ids...)
			sort.Ints(got)
			sort.Ints(want)
			if len(got) != len(want) {
				t.Fatalf("window at %v: sweep %v vs scan %v", alpha, got, want)
			}
			for k := range got {
				if got[k] != want[k] {
					t.Fatalf("window at %v: sweep %v vs scan %v", alpha, got, want)
				}
			}
			return true
		})
		wantCands := len(scanCandidates(in, 0))
		if seen != wantCands {
			t.Fatalf("sweep enumerated %d windows, candidates say %d", seen, wantCands)
		}
	}
}

func TestSweepFullCircleWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	in := randInstance(rng, 12, 1, model.Angles)
	in.Antennas[0].Rho = 6.28318 // ~2π: every window covers everyone
	sw := NewEngine(in).Sweep(0)
	forEachWindow(sw, func(alpha float64, ids []int) bool {
		if len(ids) != in.N() {
			t.Fatalf("full-circle window covers %d/%d", len(ids), in.N())
		}
		return true
	})
}

// TestSweepSeamDedup is the regression test for duplicate-angle
// deduplication across the 2π seam: a customer just below 2π and one at 0
// are the same candidate angle within geom.Eps, but the plain
// adjacent-difference check cannot see it (they sit at opposite ends of the
// sorted slice) and used to emit two near-identical windows.
func TestSweepSeamDedup(t *testing.T) {
	in := instWith(
		[]model.Customer{
			{Theta: 0, R: 1, Demand: 1},
			{Theta: geom.TwoPi - geom.Eps/2, R: 1, Demand: 1},
			{Theta: 1.0, R: 1, Demand: 1},
		},
		[]model.Antenna{{Rho: 1.5, Range: 5, Capacity: 5}},
		model.Sectors,
	)
	var alphas []float64
	var sizes []int
	forEachWindow(NewEngine(in).Sweep(0), func(alpha float64, ids []int) bool {
		alphas = append(alphas, alpha)
		sizes = append(sizes, len(ids))
		return true
	})
	if len(alphas) != 2 {
		t.Fatalf("windows at %v, want 2 (seam pair deduplicated)", alphas)
	}
	// The surviving seam window starts at the near-2π twin and must cover
	// all three customers (0 and 1.0 are both within rho of it).
	if sizes[1] != 3 {
		t.Fatalf("seam window covers %d customers, want 3", sizes[1])
	}
}

func TestSweepRangeFilter(t *testing.T) {
	in := instWith(
		[]model.Customer{
			{Theta: 0.1, R: 1, Demand: 1},
			{Theta: 0.2, R: 100, Demand: 1}, // out of range
		},
		[]model.Antenna{{Rho: 1, Range: 5, Capacity: 5}},
		model.Sectors,
	)
	sw := NewEngine(in).Sweep(0)
	if sw.Len() != 1 {
		t.Fatalf("sweep kept %d customers, want 1", sw.Len())
	}
}

func TestSweepEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	in := randInstance(rng, 10, 1, model.Sectors)
	calls := 0
	forEachWindow(NewEngine(in).Sweep(0), func(float64, []int) bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Fatalf("early stop ignored: %d calls", calls)
	}
}

func TestSweepEmpty(t *testing.T) {
	in := instWith(nil, []model.Antenna{{Rho: 1, Range: 5, Capacity: 5}}, model.Sectors)
	forEachWindow(NewEngine(in).Sweep(0), func(float64, []int) bool {
		t.Fatal("no windows expected")
		return true
	})
}

func TestSweepActiveMaskInWindowSets(t *testing.T) {
	in := instWith(
		[]model.Customer{
			{Theta: 0.1, R: 1, Demand: 1},
			{Theta: 0.2, R: 1, Demand: 1},
		},
		[]model.Antenna{{Rho: 1, Range: 5, Capacity: 5}},
		model.Sectors,
	)
	alphas, members := windowSets(NewEngine(in).Sweep(0), []bool{true, false})
	if len(alphas) != 2 {
		t.Fatalf("windows = %d, want 2", len(alphas))
	}
	for k, ids := range members {
		for _, i := range ids {
			if i == 1 {
				t.Fatalf("window %d contains masked customer", k)
			}
		}
	}
}
