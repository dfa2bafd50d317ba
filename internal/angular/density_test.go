package angular

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"sectorpack/internal/gen"
	"sectorpack/internal/knapsack"
)

// refDensityOrder is the Dantzig order as a comparator sort of the
// positions, the way sortDensity built it before the radix build. Its
// comparator is a copy of densityCmp, so the reference does not move with
// the code under test.
func refDensityOrder(weights, profits []int64) []int32 {
	order := make([]int32, len(weights))
	for t := range order {
		order[t] = int32(t)
	}
	slices.SortFunc(order, func(a, b int32) int {
		wa, wb := weights[a], weights[b]
		pa, pb := profits[a], profits[b]
		if wa == 0 || wb == 0 {
			if wa != wb {
				return cmp.Compare(wa, wb)
			}
		} else if c := knapsack.CrossCmp(pb, wa, pa, wb); c != 0 {
			return c
		}
		if pa != pb {
			return cmp.Compare(pb, pa)
		}
		return cmp.Compare(a, b)
	})
	return order
}

// checkDensityOrder fails unless the sweep's Dantzig order is the
// reference's.
func checkDensityOrder(t *testing.T, tag string, s *Sweep) {
	t.Helper()
	want := refDensityOrder(s.weights, s.profits)
	if !slices.Equal(s.density, want) {
		for k := range want {
			if s.density[k] != want[k] {
				t.Fatalf("%s: %d positions, order differs at rank %d: position %d, reference %d",
					tag, len(want), k, s.density[k], want[k])
			}
		}
	}
}

// sweepOf returns a sweep holding only the columns sortDensity reads,
// ordered with the scratch sc.
func sweepOf(weights, profits []int64, sc *buildScratch) *Sweep {
	s := &Sweep{weights: weights, profits: profits, ids: make([]int32, len(weights)), density: make([]int32, len(weights))}
	s.sortDensity(sc)
	return s
}

// TestDensityOrderMatchesComparator pins the radix-built Dantzig order to
// the comparator sort it replaced, on sweeps from every generator family,
// on the tie-heavy family of TestBestWindowPruningInvariance, on sweeps a
// Prewarm built at 1 and at 8 workers, and on hand-made columns: zero
// weights and profits, values at and past 2^53 and near 2^62 (CrossCmp's
// 128-bit path, where a float64 quotient can misorder two ratios), and
// distinct ratios whose float64 quotients collide.
func TestDensityOrderMatchesComparator(t *testing.T) {
	for _, fam := range gen.Families() {
		for seed := int64(1); seed <= 3; seed++ {
			for _, n := range []int{40, 500, 3000} {
				in := gen.MustGenerate(gen.Config{Family: fam, Seed: seed, N: n, M: 3})
				eng := NewEngine(in)
				for j := range in.Antennas {
					checkDensityOrder(t, fmt.Sprintf("%s/%d/n%d/antenna %d", fam, seed, n, j), eng.Sweep(j))
				}
				// The tie-heavy family: every ratio equal, so the order is
				// all tie-breaks.
				for i := range in.Customers {
					in.Customers[i].Demand, in.Customers[i].Profit = 2, 3
				}
				eng = NewEngine(in)
				for j := range in.Antennas {
					checkDensityOrder(t, fmt.Sprintf("ties/%s/%d/n%d/antenna %d", fam, seed, n, j), eng.Sweep(j))
				}
			}
		}
	}

	in := largeDiffInstance(t)
	for _, workers := range []int{1, 8} {
		prev := SetMaxWorkers(workers)
		eng := NewEngine(in)
		err := eng.Prewarm(context.Background())
		SetMaxWorkers(prev)
		if err != nil {
			t.Fatal(err)
		}
		for j, s := range eng.sweeps {
			checkDensityOrder(t, fmt.Sprintf("prewarm/%d workers/antenna %d", workers, j), s)
		}
	}

	// Hand-made columns, ordered with one scratch reused across sizes.
	rng := rand.New(rand.NewSource(5))
	sc := new(buildScratch)
	column := func(k int, draw func() int64) []int64 {
		c := make([]int64, k)
		for t := range c {
			c[t] = draw()
		}
		return c
	}
	small := func(m int64) func() int64 { return func() int64 { return rng.Int63n(m) } }
	near := func(base int64, spread int64) func() int64 {
		return func() int64 { return base + rng.Int63n(spread) }
	}
	collisions := 0
	for _, k := range []int{radixMin - 1, radixMin, 500, 5000, 1000} {
		// Ratios 1 + δ/w with w near 2^52 and small δ differ by less than
		// half a unit in the last place of 1, so many round to the same
		// float64 quotient.
		w := column(k, near(1<<52, 1<<20))
		p := make([]int64, k)
		for t := range p {
			p[t] = w[t] + rng.Int63n(4)
		}
		// Past 2^53 the operands themselves round, so a larger ratio can
		// get the smaller quotient: such columns must keep the comparator.
		rw := column(k, near(1<<62-1<<13, 1<<12))
		rp := make([]int64, k)
		for t := range rp {
			rp[t] = rw[t] + rng.Int63n(200)
		}
		cases := []struct {
			name             string
			weights, profits []int64
		}{
			{"zero weights", column(k, small(3)), column(k, small(5))},
			{"zero profits", column(k, near(1, 9)), column(k, small(2))},
			{"at 2^53", column(k, near(1<<53-3, 4)), column(k, near(1<<53-3, 4))},
			{"past 2^53", column(k, near(1<<53-2, 4)), column(k, near(1<<53-2, 4))},
			{"near 2^62", column(k, near(1<<62-1<<40, 1<<40)), column(k, near(1<<62-1<<40, 1<<40))},
			{"mixed 2^62", column(k, small(10)), column(k, near(1<<62-8, 8))},
			{"float collide", w, p},
			{"rounded operands", rw, rp},
		}
		for _, c := range cases {
			s := sweepOf(c.weights, c.profits, sc)
			checkDensityOrder(t, fmt.Sprintf("%s/k%d", c.name, k), s)
			if c.name == "float collide" {
				for r := 1; r < k; r++ {
					a, b := s.density[r-1], s.density[r]
					qa, qb := float64(p[a])/float64(w[a]), float64(p[b])/float64(w[b])
					if math.Float64bits(qa) == math.Float64bits(qb) && !s.sameDensity(a, b) {
						collisions++
					}
				}
			}
		}
	}
	if collisions == 0 {
		t.Fatal("no two adjacent ratios shared a float64 quotient: the re-sort of colliding runs went untested")
	}
}
