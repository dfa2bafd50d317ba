package mkp

import (
	"math/rand"
	"testing"

	"sectorpack/internal/knapsack"
)

// bruteForce enumerates all (m+1)^n placements — the trusted oracle.
func bruteForce(p *Problem) int64 {
	n, m := len(p.Items), len(p.Capacities)
	var best int64
	assign := make([]int, n)
	load := make([]int64, m)
	var rec func(i int, profit int64)
	rec = func(i int, profit int64) {
		if profit > best {
			best = profit
		}
		if i == n {
			return
		}
		assign[i] = Unassigned
		rec(i+1, profit)
		for j := 0; j < m; j++ {
			if p.eligible(i, j) && load[j]+p.Items[i].Weight <= p.Capacities[j] {
				load[j] += p.Items[i].Weight
				assign[i] = j
				rec(i+1, profit+p.Items[i].Profit)
				load[j] -= p.Items[i].Weight
			}
		}
	}
	rec(0, 0)
	return best
}

func randomProblem(rng *rand.Rand, n, m int, withEligibility bool) *Problem {
	p := &Problem{
		Items:      make([]knapsack.Item, n),
		Capacities: make([]int64, m),
	}
	for i := range p.Items {
		p.Items[i] = knapsack.Item{Weight: 1 + rng.Int63n(15), Profit: 1 + rng.Int63n(25)}
	}
	for j := range p.Capacities {
		p.Capacities[j] = 5 + rng.Int63n(40)
	}
	if withEligibility {
		p.Eligible = make([][]bool, n)
		for i := range p.Eligible {
			p.Eligible[i] = make([]bool, m)
			any := false
			for j := range p.Eligible[i] {
				p.Eligible[i][j] = rng.Float64() < 0.7
				any = any || p.Eligible[i][j]
			}
			if !any {
				p.Eligible[i][rng.Intn(m)] = true
			}
		}
	}
	return p
}

func TestExactAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 120; trial++ {
		n := 1 + rng.Intn(8)
		m := 1 + rng.Intn(3)
		p := randomProblem(rng, n, m, trial%2 == 0)
		want := bruteForce(p)
		res, ok, err := Exact(p, 50_000_000)
		if err != nil || !ok {
			t.Fatalf("Exact: ok=%v err=%v", ok, err)
		}
		if err := p.Check(res); err != nil {
			t.Fatalf("Exact result infeasible: %v", err)
		}
		if res.Profit != want {
			t.Fatalf("Exact = %d, want %d", res.Profit, want)
		}
	}
}

func TestLPRelaxUpperBound(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(7)
		m := 1 + rng.Intn(3)
		p := randomProblem(rng, n, m, trial%2 == 0)
		want := bruteForce(p)
		bound, x, err := LPRelax(p)
		if err != nil {
			t.Fatalf("LPRelax: %v", err)
		}
		if bound < float64(want)-1e-6 {
			t.Fatalf("LP bound %v < OPT %d", bound, want)
		}
		// fractional solution respects the structure
		for i := range x {
			var sum float64
			for j := range x[i] {
				if x[i][j] < -1e-9 {
					t.Fatalf("negative fraction x[%d][%d] = %v", i, j, x[i][j])
				}
				if !p.eligible(i, j) && x[i][j] > 1e-9 {
					t.Fatalf("ineligible pair (%d,%d) has mass %v", i, j, x[i][j])
				}
				sum += x[i][j]
			}
			if sum > 1+1e-6 {
				t.Fatalf("item %d fractionally assigned %v > 1", i, sum)
			}
		}
	}
}

func TestRoundLPFeasibleAndDecent(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(7)
		m := 1 + rng.Intn(3)
		p := randomProblem(rng, n, m, trial%2 == 0)
		want := bruteForce(p)
		_, x, err := LPRelax(p)
		if err != nil {
			t.Fatalf("LPRelax: %v", err)
		}
		res, err := RoundLP(p, x, rng, 5)
		if err != nil {
			t.Fatalf("RoundLP: %v", err)
		}
		if err := p.Check(res); err != nil {
			t.Fatalf("RoundLP result infeasible: %v", err)
		}
		// Rounding with local-search polish should reach at least half of
		// the optimum on these tiny instances.
		if want > 0 && 2*res.Profit < want {
			t.Fatalf("RoundLP %d < OPT/2 (OPT=%d)", res.Profit, want)
		}
	}
}

func TestLocalSearchImproves(t *testing.T) {
	p := &Problem{
		Items:      []knapsack.Item{{Weight: 5, Profit: 5}, {Weight: 5, Profit: 50}},
		Capacities: []int64{5},
	}
	// Start with the low-profit item assigned.
	start := Result{Profit: 5, Bin: []int{0, Unassigned}}
	res, err := LocalSearch(p, start, 10)
	if err != nil {
		t.Fatalf("LocalSearch: %v", err)
	}
	if res.Profit != 50 {
		t.Errorf("LocalSearch = %d, want 50 (swap move)", res.Profit)
	}
	if err := p.Check(res); err != nil {
		t.Fatalf("infeasible: %v", err)
	}
}

func TestLocalSearchRelocation(t *testing.T) {
	// Item 0 sits in bin 0 but also fits bin 1; moving it frees bin 0 for
	// item 1 (only eligible for bin 0).
	p := &Problem{
		Items:      []knapsack.Item{{Weight: 5, Profit: 5}, {Weight: 5, Profit: 7}},
		Capacities: []int64{5, 5},
		Eligible:   [][]bool{{true, true}, {true, false}},
	}
	start := Result{Profit: 5, Bin: []int{0, Unassigned}}
	res, err := LocalSearch(p, start, 10)
	if err != nil {
		t.Fatalf("LocalSearch: %v", err)
	}
	if res.Profit != 12 {
		t.Errorf("LocalSearch = %d, want 12 (relocation move)", res.Profit)
	}
}

func TestLocalSearchRejectsInfeasibleStart(t *testing.T) {
	p := &Problem{
		Items:      []knapsack.Item{{Weight: 10, Profit: 1}},
		Capacities: []int64{5},
	}
	bad := Result{Profit: 1, Bin: []int{0}}
	if _, err := LocalSearch(p, bad, 5); err == nil {
		t.Error("infeasible start must be rejected")
	}
}

func TestValidateAndCheckErrors(t *testing.T) {
	p := &Problem{Items: []knapsack.Item{{Weight: -1, Profit: 1}}, Capacities: []int64{5}}
	if err := p.Validate(); err == nil {
		t.Error("negative weight must fail validation")
	}
	p = &Problem{Items: []knapsack.Item{{Weight: 1, Profit: 1}}, Capacities: []int64{-5}}
	if err := p.Validate(); err == nil {
		t.Error("negative capacity must fail validation")
	}
	p = &Problem{Items: []knapsack.Item{{Weight: 1, Profit: 1}}, Capacities: []int64{5}, Eligible: [][]bool{}}
	if err := p.Validate(); err == nil {
		t.Error("eligibility shape mismatch must fail validation")
	}
	good := &Problem{Items: []knapsack.Item{{Weight: 1, Profit: 1}}, Capacities: []int64{5}}
	if err := good.Check(Result{Profit: 0, Bin: []int{9}}); err == nil {
		t.Error("unknown bin must fail check")
	}
	if err := good.Check(Result{Profit: 5, Bin: []int{Unassigned}}); err == nil {
		t.Error("wrong profit must fail check")
	}
	if err := good.Check(Result{Profit: 0, Bin: []int{}}); err == nil {
		t.Error("short bin slice must fail check")
	}
}

func TestExactRejectsOversize(t *testing.T) {
	p := &Problem{
		Items:      make([]knapsack.Item, MaxExactItems+1),
		Capacities: []int64{10},
	}
	for i := range p.Items {
		p.Items[i] = knapsack.Item{Weight: 1, Profit: 1}
	}
	if _, _, err := Exact(p, 1000); err == nil {
		t.Error("oversize Exact input must be rejected")
	}
}

func TestExactBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	p := randomProblem(rng, 20, 3, false)
	res, ok, err := Exact(p, 5)
	if err != nil {
		t.Fatalf("Exact: %v", err)
	}
	if ok {
		t.Error("5-node budget should be exhausted")
	}
	if err := p.Check(res); err != nil {
		t.Fatalf("incumbent must stay feasible: %v", err)
	}
}

// TestExactDensityOrder pins Exact's density-descending search order: with
// the denser item first, a 3-node budget takes it and proves the optimum.
// The huge row's weights near 2^62 make profit×weight cross products wrap
// int64.
func TestExactDensityOrder(t *testing.T) {
	cases := []struct {
		name          string
		dense, sparse knapsack.Item
		capacity      int64
	}{
		{"small", knapsack.Item{Weight: 3, Profit: 2}, knapsack.Item{Weight: 4, Profit: 1}, 4},
		{"huge", knapsack.Item{Weight: 1<<62 - 1, Profit: 2}, knapsack.Item{Weight: 1 << 62, Profit: 1}, 1 << 62},
	}
	for _, c := range cases {
		p := &Problem{Items: []knapsack.Item{c.sparse, c.dense}, Capacities: []int64{c.capacity}}
		res, ok, err := Exact(p, 3)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !ok || res.Profit != c.dense.Profit {
			t.Errorf("%s: profit %d ok=%v, want %d proven within 3 nodes", c.name, res.Profit, ok, c.dense.Profit)
		}
	}
}

// TestRoundLPRepairEvictsSparsestFirst pins the repair step's eviction
// order: every item rounds into the one bin, and evicting the two sparse
// items keeps the dense one, which no single swap could restore. The huge
// row's weights near 2^62 make profit×weight cross products wrap int64.
func TestRoundLPRepairEvictsSparsestFirst(t *testing.T) {
	cases := []struct {
		name          string
		dense, sparse knapsack.Item
		capacity      int64
	}{
		{"small", knapsack.Item{Weight: 6, Profit: 4}, knapsack.Item{Weight: 4, Profit: 1}, 8},
		{"huge", knapsack.Item{Weight: 1<<62 - 2, Profit: 4}, knapsack.Item{Weight: 1 << 61, Profit: 1}, 1 << 62},
	}
	for _, c := range cases {
		p := &Problem{Items: []knapsack.Item{c.sparse, c.dense, c.sparse}, Capacities: []int64{c.capacity}}
		x := [][]float64{{1}, {1}, {1}}
		res, err := RoundLP(p, x, rand.New(rand.NewSource(1)), 1)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := p.Check(res); err != nil {
			t.Fatalf("%s: infeasible: %v", c.name, err)
		}
		if res.Profit != c.dense.Profit {
			t.Errorf("%s: profit %d, want %d from keeping the dense item", c.name, res.Profit, c.dense.Profit)
		}
	}
}

func TestEmptyProblem(t *testing.T) {
	p := &Problem{}
	res, ok, err := Exact(p, 100)
	if err != nil || !ok || res.Profit != 0 {
		t.Fatalf("empty Exact: %+v ok=%v err=%v", res, ok, err)
	}
	bound, _, err := LPRelax(p)
	if err != nil || bound != 0 {
		t.Fatalf("empty LPRelax: %v err=%v", bound, err)
	}
}
