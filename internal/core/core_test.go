package core

import (
	"context"
	"math/rand"
	"testing"

	"sectorpack/internal/exact"
	"sectorpack/internal/geom"
	"sectorpack/internal/mkp"
	"sectorpack/internal/model"
)

// randInstance builds a random valid instance of the given variant.
func randInstance(rng *rand.Rand, n, m int, variant model.Variant) *model.Instance {
	in := &model.Instance{Variant: variant}
	for i := 0; i < n; i++ {
		in.Customers = append(in.Customers, model.Customer{
			Theta:  rng.Float64() * geom.TwoPi,
			R:      rng.Float64() * 10,
			Demand: 1 + rng.Int63n(6),
		})
	}
	budget := geom.TwoPi * 0.9
	for j := 0; j < m; j++ {
		maxW := budget / float64(m)
		w := 0.2 + rng.Float64()*(maxW-0.2)
		a := model.Antenna{Rho: w, Capacity: 4 + rng.Int63n(16)}
		if variant == model.Sectors {
			a.Range = 3 + rng.Float64()*8
		}
		in.Antennas = append(in.Antennas, a)
	}
	return in.Normalize()
}

// checkSolution asserts feasibility and internal consistency.
func checkSolution(t *testing.T, in *model.Instance, sol model.Solution) {
	t.Helper()
	if err := sol.Assignment.Check(in); err != nil {
		t.Fatalf("%s: infeasible: %v", sol.Algorithm, err)
	}
	if got := sol.Assignment.Profit(in); got != sol.Profit {
		t.Fatalf("%s: reported profit %d != assignment profit %d", sol.Algorithm, sol.Profit, got)
	}
	if sol.UpperBound > 0 && float64(sol.Profit) > sol.UpperBound+1e-6 {
		t.Fatalf("%s: profit %d exceeds its own bound %v", sol.Algorithm, sol.Profit, sol.UpperBound)
	}
}

// TestUnassignedMarkersAgree: localsearch, lpround and exact copy an
// mkp.Result's Bin into an Assignment's Owner as is, which is right only
// while both packages mark an unplaced customer alike.
func TestUnassignedMarkersAgree(t *testing.T) {
	if mkp.Unassigned != model.Unassigned {
		t.Fatalf("mkp.Unassigned = %d, model.Unassigned = %d", mkp.Unassigned, model.Unassigned)
	}
}

func TestAllSolversFeasibleOnRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	variants := []model.Variant{model.Sectors, model.Angles, model.DisjointAngles}
	for trial := 0; trial < 30; trial++ {
		variant := variants[trial%3]
		in := randInstance(rng, 5+rng.Intn(20), 1+rng.Intn(3), variant)
		for _, name := range []string{"greedy", "localsearch", "lpround"} {
			solver, err := Get(name)
			if err != nil {
				t.Fatalf("Get(%s): %v", name, err)
			}
			sol, err := solver(context.Background(), in, Options{Seed: int64(trial)})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			checkSolution(t, in, sol)
		}
	}
}

func TestGreedyAtLeastHalfOfExact(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 15; trial++ {
		in := randInstance(rng, 3+rng.Intn(7), 1+rng.Intn(2), model.Sectors)
		opt, err := exact.Solve(context.Background(), in, exact.Limits{})
		if err != nil {
			t.Fatalf("exact: %v", err)
		}
		g, err := SolveGreedy(context.Background(), in, Options{})
		if err != nil {
			t.Fatalf("greedy: %v", err)
		}
		checkSolution(t, in, g)
		if 2*g.Profit < opt.Profit {
			t.Fatalf("greedy %d < OPT/2 (OPT=%d)", g.Profit, opt.Profit)
		}
	}
}

func TestUpperBoundDominatesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for trial := 0; trial < 15; trial++ {
		in := randInstance(rng, 3+rng.Intn(6), 1+rng.Intn(2), model.Sectors)
		opt, err := exact.Solve(context.Background(), in, exact.Limits{})
		if err != nil {
			t.Fatalf("exact: %v", err)
		}
		if b := UpperBound(in); b < float64(opt.Profit)-1e-6 {
			t.Fatalf("UpperBound %v < OPT %d", b, opt.Profit)
		}
	}
}

func TestLocalSearchAndLPRoundDominateGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for trial := 0; trial < 15; trial++ {
		in := randInstance(rng, 8+rng.Intn(15), 1+rng.Intn(3), model.Sectors)
		g, err := SolveGreedy(context.Background(), in, Options{Seed: 1})
		if err != nil {
			t.Fatalf("greedy: %v", err)
		}
		ls, err := SolveLocalSearch(context.Background(), in, Options{Seed: 1})
		if err != nil {
			t.Fatalf("localsearch: %v", err)
		}
		lr, err := SolveLPRound(context.Background(), in, Options{Seed: 1})
		if err != nil {
			t.Fatalf("lpround: %v", err)
		}
		checkSolution(t, in, ls)
		checkSolution(t, in, lr)
		if ls.Profit < g.Profit {
			t.Fatalf("localsearch %d < greedy %d", ls.Profit, g.Profit)
		}
		if lr.Profit < g.Profit {
			t.Fatalf("lpround %d < greedy %d", lr.Profit, g.Profit)
		}
	}
}

func TestSolversDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	in := randInstance(rng, 15, 2, model.Sectors)
	for _, name := range []string{"greedy", "localsearch", "lpround"} {
		solver, _ := Get(name)
		a, err := solver(context.Background(), in, Options{Seed: 7})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := solver(context.Background(), in, Options{Seed: 7})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a.Profit != b.Profit {
			t.Fatalf("%s not deterministic: %d vs %d", name, a.Profit, b.Profit)
		}
	}
}

func TestRegistry(t *testing.T) {
	if _, err := Get("nope"); err == nil {
		t.Error("unknown solver must error")
	}
	names := Names()
	if len(names) < 5 {
		t.Fatalf("expected at least 5 solvers, got %v", names)
	}
	for _, name := range names {
		if _, err := Get(name); err != nil {
			t.Errorf("Get(%s): %v", name, err)
		}
	}
}

func TestEmptyInstanceAllSolvers(t *testing.T) {
	in := (&model.Instance{Variant: model.Angles}).Normalize()
	for _, name := range []string{"greedy", "localsearch", "lpround", "unitflow"} {
		solver, _ := Get(name)
		sol, err := solver(context.Background(), in, Options{})
		if err != nil {
			t.Fatalf("%s on empty: %v", name, err)
		}
		if sol.Profit != 0 {
			t.Fatalf("%s on empty: profit %d", name, sol.Profit)
		}
	}
}

func TestGreedySkipBound(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	in := randInstance(rng, 10, 2, model.Sectors)
	sol, err := SolveGreedy(context.Background(), in, Options{SkipBound: true})
	if err != nil {
		t.Fatalf("greedy: %v", err)
	}
	if sol.UpperBound != 0 {
		t.Error("SkipBound must suppress the bound")
	}
}

func TestGreedyDisjointProducesDisjointSectors(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 20; trial++ {
		in := randInstance(rng, 10+rng.Intn(15), 2+rng.Intn(3), model.DisjointAngles)
		sol, err := SolveGreedy(context.Background(), in, Options{})
		if err != nil {
			t.Fatalf("greedy: %v", err)
		}
		checkSolution(t, in, sol) // Check enforces serving-sector disjointness
	}
}

func TestBaselineFeasibleAllVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(181))
	variants := []model.Variant{model.Sectors, model.Angles, model.DisjointAngles}
	for trial := 0; trial < 15; trial++ {
		in := randInstance(rng, 10+rng.Intn(20), 1+rng.Intn(4), variants[trial%3])
		sol, err := SolveBaseline(context.Background(), in, Options{Seed: 1})
		if err != nil {
			t.Fatalf("baseline: %v", err)
		}
		checkSolution(t, in, sol)
	}
}

// TestBaselineTakesDensestFirst pins the baseline's profit-density order:
// one antenna has room for only one of two customers and must take the
// denser, including at demands near 2^62 where the profit×demand cross
// products wrap int64.
func TestBaselineTakesDensestFirst(t *testing.T) {
	cases := []struct {
		name          string
		dense, sparse model.Customer
		capacity      int64
	}{
		{"small", model.Customer{Demand: 3, Profit: 2}, model.Customer{Demand: 4, Profit: 1}, 4},
		{"huge", model.Customer{Demand: 1<<62 - 1, Profit: 2}, model.Customer{Demand: 1 << 62, Profit: 1}, 1 << 62},
	}
	for _, c := range cases {
		c.sparse.ID, c.sparse.Theta, c.sparse.R = 0, 0.5, 1
		c.dense.ID, c.dense.Theta, c.dense.R = 1, 1, 1
		in := (&model.Instance{
			Variant:   model.Angles,
			Customers: []model.Customer{c.sparse, c.dense},
			Antennas:  []model.Antenna{{Rho: geom.TwoPi / 2, Capacity: c.capacity}},
		}).Normalize()
		sol, err := SolveBaseline(context.Background(), in, Options{SkipBound: true})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		checkSolution(t, in, sol)
		if sol.Profit != c.dense.Profit {
			t.Errorf("%s: profit %d, want %d from the denser customer", c.name, sol.Profit, c.dense.Profit)
		}
	}
}

func TestGreedyUsuallyBeatsBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(182))
	winsGreedy, winsBaseline := 0, 0
	for trial := 0; trial < 20; trial++ {
		in := randInstance(rng, 25, 3, model.Sectors)
		g, err := SolveGreedy(context.Background(), in, Options{SkipBound: true})
		if err != nil {
			t.Fatal(err)
		}
		b, err := SolveBaseline(context.Background(), in, Options{SkipBound: true})
		if err != nil {
			t.Fatal(err)
		}
		if g.Profit > b.Profit {
			winsGreedy++
		} else if b.Profit > g.Profit {
			winsBaseline++
		}
	}
	if winsGreedy <= winsBaseline {
		t.Errorf("greedy should usually beat the no-optimization baseline: %d vs %d", winsGreedy, winsBaseline)
	}
}

func TestSolveAutoPicksStrategies(t *testing.T) {
	rng := rand.New(rand.NewSource(183))
	cases := []struct {
		in         *model.Instance
		wantPrefix string
	}{
		{randInstance(rng, 6, 2, model.Sectors), "auto/exact"},
		{randInstance(rng, 8, 2, model.DisjointAngles), "auto/disjoint-dp"},
		{func() *model.Instance {
			in := randInstance(rng, 30, 2, model.Sectors)
			for i := range in.Customers {
				in.Customers[i].Demand = 1
				in.Customers[i].Profit = 1
			}
			return in
		}(), "auto/unitflow"},
		{randInstance(rng, 40, 3, model.Sectors), "auto/localsearch"},
	}
	for _, c := range cases {
		sol, err := SolveAuto(context.Background(), c.in, Options{Seed: 1, SkipBound: true})
		if err != nil {
			t.Fatalf("SolveAuto(context.Background(), %v): %v", c.wantPrefix, err)
		}
		if sol.Algorithm != c.wantPrefix {
			t.Errorf("algorithm = %q, want %q", sol.Algorithm, c.wantPrefix)
		}
		if err := sol.Assignment.Check(c.in); err != nil {
			t.Fatalf("%s infeasible: %v", sol.Algorithm, err)
		}
	}
}

func TestSolveAutoExactOnTiny(t *testing.T) {
	rng := rand.New(rand.NewSource(184))
	for trial := 0; trial < 6; trial++ {
		in := randInstance(rng, 4+rng.Intn(6), 1+rng.Intn(2), model.Sectors)
		auto, err := SolveAuto(context.Background(), in, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ex, err := exact.Solve(context.Background(), in, exact.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		if auto.Profit != ex.Profit {
			t.Fatalf("auto %d != exact %d on tiny instance", auto.Profit, ex.Profit)
		}
	}
}

func TestSolversRejectInvalidInstance(t *testing.T) {
	bad := &model.Instance{
		Variant:   model.Sectors,
		Customers: []model.Customer{{ID: 0, Theta: 0.1, R: 1, Demand: -1}},
	}
	for _, name := range []string{"greedy", "localsearch", "lpround", "anneal", "baseline", "auto", "unitflow"} {
		solver, _ := Get(name)
		if _, err := solver(context.Background(), bad, Options{}); err == nil {
			t.Errorf("%s accepted an invalid instance", name)
		}
	}
}
