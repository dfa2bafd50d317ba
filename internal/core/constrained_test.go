package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"sectorpack/internal/angular"
	"sectorpack/internal/gen"
	"sectorpack/internal/geom"
	"sectorpack/internal/knapsack"
	"sectorpack/internal/model"
)

// TestNearAngleSeam pins the candidate-dedup predicate, in particular the
// 2π seam cases: a placed-sector end just below 2π duplicates a customer
// candidate at ~0 and vice versa.
func TestNearAngleSeam(t *testing.T) {
	sorted := []float64{1e-10, 1.0, geom.TwoPi - 1e-10}
	cases := []struct {
		alpha float64
		want  bool
	}{
		{1.0 + geom.Eps/2, true},   // adjacent within Eps
		{1.0 - geom.Eps/2, true},   // adjacent from below
		{0.5, false},               // nowhere near a candidate
		{geom.TwoPi - 5e-11, true}, // seam: wraps onto sorted[0]
		{2e-10, true},              // near sorted[0] directly
		{geom.TwoPi - 2e-10, true}, // near the last entry
	}
	for _, c := range cases {
		if got := nearAngle(sorted, nil, c.alpha); got != c.want {
			t.Errorf("nearAngle(%v) = %v, want %v", c.alpha, got, c.want)
		}
	}
	// The extras slice (already-appended sector ends) is scanned with full
	// circular distance, seam included.
	if !nearAngle(nil, []float64{3.0}, 3.0+geom.Eps/2) {
		t.Error("extras within Eps not detected")
	}
	if !nearAngle(nil, []float64{geom.TwoPi - 1e-10}, 1e-10) {
		t.Error("extras across the seam not detected")
	}
	if nearAngle(nil, []float64{3.0}, 3.5) {
		t.Error("distant extra falsely matched")
	}
}

// TestBestWindowConstrainedMatchesBruteForce compares the constrained
// best-window search — cached candidates, end-angle dedup, Dantzig pruning —
// against a brute-force reference that evaluates every base candidate and
// every placed-sector end with no dedup at all. Placed sectors are anchored
// so that their ends coincide with customer angles, forcing the dedup path;
// duplicates are harmless in the reference (same window, same profit, and
// the earlier twin wins the strict fold), so results must be bit-identical.
func TestBestWindowConstrainedMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	fams := gen.Families()
	for trial := 0; trial < 40; trial++ {
		in := gen.MustGenerate(gen.Config{
			Family:  fams[trial%len(fams)],
			Seed:    int64(trial + 1),
			N:       22,
			M:       3,
			Variant: model.DisjointAngles,
			Rho:     1.1,
		})
		n := in.N()
		rho := in.Antennas[0].Rho

		// Two placed sectors: one ending exactly at a random customer angle
		// (the flush-chain collision the dedup exists for), one arbitrary.
		theta := in.Customers[rng.Intn(n)].Theta
		placed := []geom.Interval{
			geom.NewInterval(geom.NormAngle(theta-rho), rho),
			geom.NewInterval(rng.Float64()*geom.TwoPi, rho),
		}
		var active []bool
		if trial%2 == 1 {
			active = make([]bool, n)
			for i := range active {
				active[i] = rng.Intn(4) != 0
			}
		}

		got, err := bestWindowConstrained(context.Background(), angular.NewEngine(in), 0, active, placed, knapsack.Options{})
		if err != nil {
			t.Fatalf("trial %d: bestWindowConstrained: %v", trial, err)
		}

		// Brute force, duplicates and all.
		cands := scanCandidates(in, 0)
		for _, iv := range placed {
			cands = append(cands, iv.End())
		}
		want := angular.Window{Profit: -1, Exact: true}
		for _, alpha := range cands {
			sector := geom.NewInterval(alpha, rho)
			blocked := false
			for _, iv := range placed {
				if sector.InteriorsOverlap(iv) {
					blocked = true
					break
				}
			}
			if blocked {
				continue
			}
			items, ids := scanWindowItems(in, 0, alpha, active)
			if len(ids) == 0 {
				continue
			}
			res, exact, err := knapsack.Solve(items, in.Antennas[0].Capacity, knapsack.Options{})
			if err != nil {
				t.Fatalf("trial %d reference: %v", trial, err)
			}
			w := angular.Window{Alpha: alpha, Profit: res.Profit, Exact: exact}
			for k, take := range res.Take {
				if take {
					w.Customers = append(w.Customers, ids[k])
				}
			}
			if w.Profit > want.Profit {
				w.Exact = w.Exact && want.Exact
				want = w
			} else {
				want.Exact = want.Exact && w.Exact
			}
		}
		if want.Profit < 0 { // nothing evaluated: clamp as the fold does
			want.Profit = 0
			want.Customers = nil
		}

		if math.Float64bits(got.Alpha) != math.Float64bits(want.Alpha) ||
			got.Profit != want.Profit || got.Exact != want.Exact ||
			len(got.Customers) != len(want.Customers) {
			t.Fatalf("trial %d: constrained %+v != brute force %+v", trial, got, want)
		}
		for k := range got.Customers {
			if got.Customers[k] != want.Customers[k] {
				t.Fatalf("trial %d: constrained %+v != brute force %+v", trial, got, want)
			}
		}

		// The winning sector must actually keep clear of the placed ones.
		if got.Profit > 0 {
			sector := geom.NewInterval(got.Alpha, rho)
			for _, iv := range placed {
				if sector.InteriorsOverlap(iv) {
					t.Fatalf("trial %d: returned sector %v overlaps placed %v", trial, sector, iv)
				}
			}
		}
	}
}
