package angular

import (
	"math/rand"
	"testing"

	"sectorpack/internal/geom"
	"sectorpack/internal/model"
)

func instWith(customers []model.Customer, antennas []model.Antenna, v model.Variant) *model.Instance {
	in := &model.Instance{Variant: v, Customers: customers, Antennas: antennas}
	return in.Normalize()
}

func TestCandidatesFilterAndDedup(t *testing.T) {
	in := instWith(
		[]model.Customer{
			{Theta: 1.0, R: 2, Demand: 1},
			{Theta: 1.0, R: 3, Demand: 1}, // duplicate angle
			{Theta: 2.0, R: 50, Demand: 1},
			{Theta: 3.0, R: 1, Demand: 1},
		},
		[]model.Antenna{{Rho: 1, Range: 10, Capacity: 5}},
		model.Sectors,
	)
	c := NewEngine(in).Candidates(0)
	if len(c) != 2 {
		t.Fatalf("candidates = %v, want [1.0 3.0] (dedup + range filter)", c)
	}
	//sectorlint:ignore floateq candidate angles are customer thetas copied verbatim; the inputs are these exact literals
	if c[0] != 1.0 || c[1] != 3.0 {
		t.Errorf("candidates = %v", c)
	}
}

func TestCandidatesUnboundedRange(t *testing.T) {
	in := instWith(
		[]model.Customer{{Theta: 0.5, R: 1e9, Demand: 1}},
		[]model.Antenna{{Rho: 1, Range: 0, Capacity: 5}}, // unbounded
		model.Angles,
	)
	if c := NewEngine(in).Candidates(0); len(c) != 1 {
		t.Fatalf("unbounded antenna should see every customer, got %v", c)
	}
}

func TestCoveredRespectsActiveMask(t *testing.T) {
	in := instWith(
		[]model.Customer{
			{Theta: 0.2, R: 1, Demand: 1},
			{Theta: 0.4, R: 1, Demand: 1},
			{Theta: 3.0, R: 1, Demand: 1},
		},
		[]model.Antenna{{Rho: 1, Range: 10, Capacity: 5}},
		model.Sectors,
	)
	eng := NewEngine(in)
	got := eng.AppendMembers(nil, 0, 0, nil)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("AppendMembers = %v, want [0 1]", got)
	}
	active := []bool{false, true, true}
	got = eng.AppendMembers(nil, 0, 0, active)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("AppendMembers with mask = %v, want [1]", got)
	}
}

func TestWindowItemsAlignment(t *testing.T) {
	in := instWith(
		[]model.Customer{
			{Theta: 0.2, R: 1, Demand: 7, Profit: 9},
			{Theta: 0.4, R: 1, Demand: 3},
		},
		[]model.Antenna{{Rho: 1, Range: 10, Capacity: 5}},
		model.Sectors,
	)
	items, ids := scanWindowItems(in, 0, 0, nil)
	if len(items) != 2 || len(ids) != 2 {
		t.Fatalf("items=%v ids=%v", items, ids)
	}
	if items[0].Weight != 7 || items[0].Profit != 9 {
		t.Errorf("item 0 = %+v, want weight 7 profit 9", items[0])
	}
	if items[1].Weight != 3 || items[1].Profit != 3 {
		t.Errorf("item 1 = %+v, want demand-defaulted profit", items[1])
	}
}

// randInstance generates a random valid instance for fuzz-style tests.
func randInstance(rng *rand.Rand, n, m int, variant model.Variant) *model.Instance {
	in := &model.Instance{Variant: variant}
	for i := 0; i < n; i++ {
		in.Customers = append(in.Customers, model.Customer{
			Theta:  rng.Float64() * geom.TwoPi,
			R:      rng.Float64() * 10,
			Demand: 1 + rng.Int63n(8),
		})
	}
	for j := 0; j < m; j++ {
		a := model.Antenna{
			Rho:      0.3 + rng.Float64()*2,
			Capacity: 5 + rng.Int63n(25),
		}
		if variant == model.Sectors {
			a.Range = 2 + rng.Float64()*9
		}
		in.Antennas = append(in.Antennas, a)
	}
	return in.Normalize()
}

// TestCandidateOrientationLemma property-checks the discretization: for a
// single antenna, no random orientation covers a customer set whose best
// knapsack value beats the best over candidate orientations.
func TestCandidateOrientationLemma(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 50; trial++ {
		in := randInstance(rng, 1+rng.Intn(10), 1, model.Sectors)
		bestCand := coveredMaxProfit(in, NewEngine(in).Candidates(0))
		var randomAlphas []float64
		for k := 0; k < 200; k++ {
			randomAlphas = append(randomAlphas, rng.Float64()*geom.TwoPi)
		}
		bestRand := coveredMaxProfit(in, randomAlphas)
		if bestRand > bestCand {
			t.Fatalf("random orientation beats candidates: %d > %d", bestRand, bestCand)
		}
	}
}

// coveredMaxProfit returns the best exact knapsack value over the given
// orientations for antenna 0.
func coveredMaxProfit(in *model.Instance, alphas []float64) int64 {
	var best int64
	for _, alpha := range alphas {
		items, _ := scanWindowItems(in, 0, alpha, nil)
		if len(items) == 0 {
			continue
		}
		res, _ := knapsackExact(items, in.Antennas[0].Capacity)
		if res > best {
			best = res
		}
	}
	return best
}
