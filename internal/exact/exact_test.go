package exact

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"sectorpack/internal/angular"
	"sectorpack/internal/geom"
	"sectorpack/internal/knapsack"
	"sectorpack/internal/model"
)

func randInstance(rng *rand.Rand, n, m int, variant model.Variant) *model.Instance {
	in := &model.Instance{Variant: variant}
	for i := 0; i < n; i++ {
		in.Customers = append(in.Customers, model.Customer{
			Theta:  rng.Float64() * geom.TwoPi,
			R:      rng.Float64() * 10,
			Demand: 1 + rng.Int63n(6),
		})
	}
	for j := 0; j < m; j++ {
		a := model.Antenna{
			Rho:      0.4 + rng.Float64()*1.6,
			Capacity: 4 + rng.Int63n(15),
		}
		if variant == model.Sectors {
			a.Range = 3 + rng.Float64()*8
		}
		in.Antennas = append(in.Antennas, a)
	}
	return in.Normalize()
}

// bruteOracle enumerates all (m+1)^n ownership vectors and for each checks
// whether SOME candidate orientation tuple covers it — completely
// independent of the mkp package used inside Solve.
func bruteOracle(t *testing.T, in *model.Instance) int64 {
	t.Helper()
	n, m := in.N(), in.M()
	cands, err := candidateSets(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	var best int64
	owner := make([]int, n)
	var rec func(i int, profit int64)
	rec = func(i int, profit int64) {
		if i == n {
			if profit <= best {
				return
			}
			// capacity check
			load := make([]int64, m)
			for k, o := range owner {
				if o >= 0 {
					load[o] += in.Customers[k].Demand
				}
			}
			for j := range load {
				if load[j] > in.Antennas[j].Capacity {
					return
				}
			}
			// orientation tuple search
			alphas := make([]float64, m)
			var tup func(j int) bool
			tup = func(j int) bool {
				if j == m {
					if in.Variant == model.DisjointAngles && !disjointOK(in, alphas) {
						return false
					}
					for k, o := range owner {
						if o >= 0 && !in.Antennas[o].Covers(alphas[o], in.Customers[k]) {
							return false
						}
					}
					return true
				}
				for _, a := range cands[j] {
					alphas[j] = a
					if tup(j + 1) {
						return true
					}
				}
				return false
			}
			if tup(0) {
				best = profit
			}
			return
		}
		owner[i] = model.Unassigned
		rec(i+1, profit)
		for j := 0; j < m; j++ {
			owner[i] = j
			rec(i+1, profit+in.Customers[i].Profit)
		}
		owner[i] = model.Unassigned
	}
	rec(0, 0)
	return best
}

func TestSolveMatchesBruteOracleSectors(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 20; trial++ {
		in := randInstance(rng, 1+rng.Intn(6), 1+rng.Intn(2), model.Sectors)
		sol, err := Solve(context.Background(), in, Limits{})
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		if err := sol.Assignment.Check(in); err != nil {
			t.Fatalf("infeasible: %v", err)
		}
		if got := sol.Assignment.Profit(in); got != sol.Profit {
			t.Fatalf("profit mismatch: reported %d, assignment %d", sol.Profit, got)
		}
		want := bruteOracle(t, in)
		if sol.Profit != want {
			t.Fatalf("Solve = %d, oracle = %d", sol.Profit, want)
		}
	}
}

func TestSolveMatchesBestWindowSingleAntenna(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 30; trial++ {
		in := randInstance(rng, 1+rng.Intn(10), 1, model.Sectors)
		sol, err := Solve(context.Background(), in, Limits{})
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		win, err := angular.NewEngine(in).BestWindow(context.Background(), 0, nil, knapsack.Options{})
		if err != nil {
			t.Fatalf("BestWindow: %v", err)
		}
		if sol.Profit != win.Profit {
			t.Fatalf("Solve = %d, BestWindow = %d", sol.Profit, win.Profit)
		}
	}
}

func TestSolveMatchesDisjointDP(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 20; trial++ {
		in := &model.Instance{Variant: model.DisjointAngles}
		n := 2 + rng.Intn(5)
		// m = 3 every third trial: three-link flush chains (end-anchored
		// head plus two followers) first become possible there.
		m := 2
		if trial%3 == 0 {
			m = 3
			n = 2 + rng.Intn(3) // keep the tuple space affordable
		}
		for i := 0; i < n; i++ {
			in.Customers = append(in.Customers, model.Customer{
				Theta:  rng.Float64() * geom.TwoPi,
				R:      rng.Float64() * 5,
				Demand: 1 + rng.Int63n(4),
			})
		}
		for j := 0; j < m; j++ {
			in.Antennas = append(in.Antennas, model.Antenna{
				Rho:      0.3 + rng.Float64()*0.9,
				Capacity: 3 + rng.Int63n(8),
			})
		}
		in.Normalize()
		sol, err := Solve(context.Background(), in, Limits{})
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		if err := sol.Assignment.Check(in); err != nil {
			t.Fatalf("infeasible: %v", err)
		}
		dp, err := angular.SolveDisjoint(context.Background(), in, knapsack.Options{})
		if err != nil {
			t.Fatalf("SolveDisjoint: %v", err)
		}
		if sol.Profit != dp.Profit {
			t.Fatalf("exact = %d, disjoint DP = %d (trial %d)", sol.Profit, dp.Profit, trial)
		}
	}
}

func TestSolveGuards(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	big := randInstance(rng, 25, 1, model.Sectors) // > mkp.MaxExactItems
	if _, err := Solve(context.Background(), big, Limits{}); err == nil {
		t.Error("oversized customer count must be rejected")
	}
	in := randInstance(rng, 10, 3, model.Sectors)
	if _, err := Solve(context.Background(), in, Limits{MaxTuples: 5}); err == nil {
		t.Error("tuple budget must be enforced")
	}
}

func TestSolveEmpty(t *testing.T) {
	in := (&model.Instance{Variant: model.Sectors}).Normalize()
	sol, err := Solve(context.Background(), in, Limits{})
	if err != nil || sol.Profit != 0 {
		t.Fatalf("empty: %d, %v", sol.Profit, err)
	}
	onlyAnt := (&model.Instance{Variant: model.Sectors, Antennas: []model.Antenna{{Rho: 1, Range: 5, Capacity: 3}}}).Normalize()
	sol, err = Solve(context.Background(), onlyAnt, Limits{})
	if err != nil || sol.Profit != 0 {
		t.Fatalf("no customers: %d, %v", sol.Profit, err)
	}
}

func TestSubsetSums(t *testing.T) {
	sums := subsetSums([]float64{1, 2})
	if len(sums) != 4 {
		t.Fatalf("subsetSums = %v", sums)
	}
	seen := map[float64]bool{}
	for _, s := range sums {
		seen[s] = true
	}
	for _, want := range []float64{0, 1, 2, 3} {
		if !seen[want] {
			t.Errorf("missing subset sum %v", want)
		}
	}
}

// solveAt runs Solve with the first-antenna fan-out capped at workers.
func solveAt(t *testing.T, workers int, in *model.Instance, lim Limits) (model.Solution, error) {
	t.Helper()
	defer angular.SetMaxWorkers(angular.SetMaxWorkers(workers))
	return Solve(context.Background(), in, lim)
}

// requireBitIdentical fails unless par equals seq bit for bit: profit,
// bound, every orientation's float bits and every owner.
func requireBitIdentical(t *testing.T, seq, par model.Solution) {
	t.Helper()
	if par.Profit != seq.Profit || math.Float64bits(par.UpperBound) != math.Float64bits(seq.UpperBound) {
		t.Fatalf("parallel profit %d ub %v != sequential %d ub %v", par.Profit, par.UpperBound, seq.Profit, seq.UpperBound)
	}
	for k := range seq.Assignment.Orientation {
		if math.Float64bits(par.Assignment.Orientation[k]) != math.Float64bits(seq.Assignment.Orientation[k]) {
			t.Fatalf("antenna %d: parallel orientation %v != sequential %v", k, par.Assignment.Orientation[k], seq.Assignment.Orientation[k])
		}
	}
	for i := range seq.Assignment.Owner {
		if par.Assignment.Owner[i] != seq.Assignment.Owner[i] {
			t.Fatalf("customer %d: parallel owner %d != sequential %d", i, par.Assignment.Owner[i], seq.Assignment.Owner[i])
		}
	}
}

// TestSolveScalarVsParallel checks that the fanned-out search returns the
// scalar recursion's answer bit for bit, tie-breaks included, on every
// variant.
func TestSolveScalarVsParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 15; trial++ {
		variant := model.Sectors
		switch {
		case trial >= 12:
			variant = model.DisjointAngles
		case trial%3 == 0:
			variant = model.Angles
		}
		in := randInstance(rng, 3+rng.Intn(8), 1+rng.Intn(2), variant)
		seq, err := solveAt(t, 1, in, Limits{})
		if err != nil {
			t.Fatalf("Solve at 1 worker: %v", err)
		}
		par, err := solveAt(t, 4, in, Limits{})
		if err != nil {
			t.Fatalf("Solve at 4 workers: %v", err)
		}
		if par.Profit != seq.Profit {
			t.Fatalf("parallel %d != sequential %d", par.Profit, seq.Profit)
		}
		if err := par.Assignment.Check(in); err != nil {
			t.Fatalf("parallel result infeasible: %v", err)
		}
		requireBitIdentical(t, seq, par)
	}
}

func TestSolveParallelSingleAntenna(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	in := randInstance(rng, 8, 1, model.Sectors)
	seq, err := solveAt(t, 1, in, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := solveAt(t, 2, in, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if par.Profit != seq.Profit {
		t.Fatalf("m=1 fallback mismatch: %d vs %d", par.Profit, seq.Profit)
	}
	requireBitIdentical(t, seq, par)
}
