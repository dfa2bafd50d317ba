package angular

import (
	"context"
	"math/rand"
	"testing"

	"sectorpack/internal/geom"
	"sectorpack/internal/knapsack"
	"sectorpack/internal/mkp"
	"sectorpack/internal/model"
)

// disjointOracle computes the DisjointAngles optimum for m <= 2 antennas by
// enumerating composite candidate orientations (customer angles plus sums
// of other antennas' widths — the chain discretization) for each antenna,
// keeping interior-disjoint combinations, and solving the restricted MKP
// exactly under the induced eligibility.
func disjointOracle(t *testing.T, in *model.Instance) int64 {
	t.Helper()
	m := in.M()
	if m > 2 {
		t.Fatal("oracle supports m <= 2")
	}
	// Composite candidates per antenna: both the additive family
	// (start-anchored chain tails) and the subtractive family
	// (end-anchored chain heads) — for m ≤ 2 a chain has at most one
	// partner, so single-width offsets suffice.
	cands := make([][]float64, m)
	for j := 0; j < m; j++ {
		seen := map[float64]bool{}
		for _, c := range in.Customers {
			seen[geom.NormAngle(c.Theta)] = true
			seen[geom.NormAngle(c.Theta-in.Antennas[j].Rho)] = true
			for j2 := 0; j2 < m; j2++ {
				if j2 != j {
					seen[geom.NormAngle(c.Theta+in.Antennas[j2].Rho)] = true
					seen[geom.NormAngle(c.Theta-in.Antennas[j].Rho-in.Antennas[j2].Rho)] = true
				}
			}
		}
		for a := range seen {
			cands[j] = append(cands[j], a)
		}
	}
	var best int64
	evaluate := func(alphas []float64) {
		ivs := make([]geom.Interval, m)
		for j := range alphas {
			ivs[j] = geom.NewInterval(alphas[j], in.Antennas[j].Rho)
		}
		if !geom.Disjoint(ivs) {
			return
		}
		p := &mkp.Problem{
			Capacities: make([]int64, m),
			Eligible:   make([][]bool, in.N()),
		}
		for j := 0; j < m; j++ {
			p.Capacities[j] = in.Antennas[j].Capacity
		}
		for i, c := range in.Customers {
			p.Items = append(p.Items, knapsack.Item{Weight: c.Demand, Profit: c.Profit})
			p.Eligible[i] = make([]bool, m)
			for j := 0; j < m; j++ {
				p.Eligible[i][j] = in.Antennas[j].Covers(alphas[j], c)
			}
		}
		res, ok, err := mkp.Exact(p, 1<<40)
		if err != nil || !ok {
			t.Fatalf("oracle MKP: ok=%v err=%v", ok, err)
		}
		if res.Profit > best {
			best = res.Profit
		}
	}
	if m == 1 {
		for _, a0 := range cands[0] {
			evaluate([]float64{a0})
		}
	} else {
		for _, a0 := range cands[0] {
			for _, a1 := range cands[1] {
				evaluate([]float64{a0, a1})
			}
		}
	}
	return best
}

func randDisjointInstance(rng *rand.Rand, n, m int) *model.Instance {
	in := &model.Instance{Variant: model.DisjointAngles}
	for i := 0; i < n; i++ {
		in.Customers = append(in.Customers, model.Customer{
			Theta:  rng.Float64() * geom.TwoPi,
			R:      rng.Float64() * 10,
			Demand: 1 + rng.Int63n(6),
		})
	}
	totalWidth := 0.0
	for j := 0; j < m; j++ {
		maxW := (geom.TwoPi - totalWidth) / float64(m-j) * 0.9
		w := 0.2 + rng.Float64()*(maxW-0.2)
		totalWidth += w
		in.Antennas = append(in.Antennas, model.Antenna{
			Rho:      w,
			Capacity: 3 + rng.Int63n(15),
		})
	}
	return in.Normalize()
}

func TestSolveDisjointSingleAntennaMatchesBestWindow(t *testing.T) {
	// With one antenna, DisjointAngles degenerates to the single best
	// window (no disjointness constraint binds).
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		in := randDisjointInstance(rng, 1+rng.Intn(10), 1)
		sol, err := SolveDisjoint(context.Background(), in, knapsack.Options{})
		if err != nil {
			t.Fatalf("SolveDisjoint: %v", err)
		}
		if err := sol.Assignment.Check(in); err != nil {
			t.Fatalf("infeasible: %v", err)
		}
		if got := sol.Assignment.Profit(in); got != sol.Profit {
			t.Fatalf("reported profit %d != assignment profit %d", sol.Profit, got)
		}
		win, err := NewEngine(in).BestWindow(context.Background(), 0, nil, knapsack.Options{})
		if err != nil {
			t.Fatalf("BestWindow: %v", err)
		}
		if sol.Profit != win.Profit {
			t.Fatalf("SolveDisjoint = %d, BestWindow = %d", sol.Profit, win.Profit)
		}
	}
}

func TestSolveDisjointMatchesOracleTwoAntennas(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 45; trial++ {
		in := randDisjointInstance(rng, 2+rng.Intn(7), 2)
		sol, err := SolveDisjoint(context.Background(), in, knapsack.Options{})
		if err != nil {
			t.Fatalf("SolveDisjoint: %v", err)
		}
		if err := sol.Assignment.Check(in); err != nil {
			t.Fatalf("infeasible: %v", err)
		}
		want := disjointOracle(t, in)
		if sol.Profit != want {
			t.Fatalf("SolveDisjoint = %d, oracle = %d (trial %d)", sol.Profit, want, trial)
		}
	}
}

func TestSolveDisjointFlushChainRequired(t *testing.T) {
	// Hand-built instance where the optimum needs a flush chain: two
	// clusters of customers separated by exactly the first antenna's
	// width, so the second sector must start flush at the first's end.
	in := &model.Instance{
		Variant: model.DisjointAngles,
		Customers: []model.Customer{
			{Theta: 0.0, R: 1, Demand: 1, Profit: 10},
			{Theta: 0.9, R: 1, Demand: 1, Profit: 10},
			{Theta: 1.1, R: 1, Demand: 1, Profit: 10},
			{Theta: 1.9, R: 1, Demand: 1, Profit: 10},
		},
		Antennas: []model.Antenna{
			{Rho: 1.0, Capacity: 2},
			{Rho: 1.0, Capacity: 2},
		},
	}
	in.Normalize()
	sol, err := SolveDisjoint(context.Background(), in, knapsack.Options{})
	if err != nil {
		t.Fatalf("SolveDisjoint: %v", err)
	}
	if err := sol.Assignment.Check(in); err != nil {
		t.Fatalf("infeasible: %v", err)
	}
	if sol.Profit != 40 {
		t.Fatalf("profit = %d, want 40 (serve everyone via flush chain)", sol.Profit)
	}
}

func TestSolveDisjointRejections(t *testing.T) {
	in := randDisjointInstance(rand.New(rand.NewSource(43)), 3, 1)
	in.Variant = model.Angles
	if _, err := SolveDisjoint(context.Background(), in, knapsack.Options{}); err == nil {
		t.Error("wrong variant must be rejected")
	}
	in.Variant = model.DisjointAngles
	in.Antennas[0].Rho = 0
	if sol, err := SolveDisjoint(context.Background(), in, knapsack.Options{}); err != nil {
		t.Errorf("zero-width antenna must be served as a degenerate ray, got error: %v", err)
	} else if err := sol.Assignment.Check(in); err != nil {
		t.Errorf("ray solution infeasible: %v", err)
	}
	many := &model.Instance{Variant: model.DisjointAngles}
	for j := 0; j <= MaxDisjointAntennas; j++ {
		many.Antennas = append(many.Antennas, model.Antenna{Rho: 0.1, Capacity: 1})
	}
	many.Customers = []model.Customer{{Theta: 1, R: 1, Demand: 1}}
	many.Normalize()
	if _, err := SolveDisjoint(context.Background(), many, knapsack.Options{}); err == nil {
		t.Error("too many antennas must be rejected")
	}
}

func TestSolveDisjointEmpty(t *testing.T) {
	in := (&model.Instance{Variant: model.DisjointAngles}).Normalize()
	sol, err := SolveDisjoint(context.Background(), in, knapsack.Options{})
	if err != nil || sol.Profit != 0 {
		t.Fatalf("empty: profit=%d err=%v", sol.Profit, err)
	}
}

func TestSolveDisjointCapacityBinds(t *testing.T) {
	// One antenna covering everything but capacity for only the best two.
	in := &model.Instance{
		Variant: model.DisjointAngles,
		Customers: []model.Customer{
			{Theta: 0.1, R: 1, Demand: 3, Profit: 5},
			{Theta: 0.2, R: 1, Demand: 3, Profit: 7},
			{Theta: 0.3, R: 1, Demand: 3, Profit: 6},
		},
		Antennas: []model.Antenna{{Rho: 1.0, Capacity: 6}},
	}
	in.Normalize()
	sol, err := SolveDisjoint(context.Background(), in, knapsack.Options{})
	if err != nil {
		t.Fatalf("SolveDisjoint: %v", err)
	}
	if sol.Profit != 13 {
		t.Fatalf("profit = %d, want 13 (7+6)", sol.Profit)
	}
}
