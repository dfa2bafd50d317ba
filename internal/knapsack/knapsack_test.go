package knapsack

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// bruteForce is the trusted oracle: full 2^n enumeration for n <= 20.
func bruteForce(items []Item, capacity int64) int64 {
	n := len(items)
	var best int64
	for mask := 0; mask < 1<<n; mask++ {
		var w, p int64
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				w += items[i].Weight
				p += items[i].Profit
			}
		}
		if w <= capacity && p > best {
			best = p
		}
	}
	return best
}

func randomItems(rng *rand.Rand, n int, maxW, maxP int64) []Item {
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{Weight: 1 + rng.Int63n(maxW), Profit: 1 + rng.Int63n(maxP)}
	}
	return items
}

// checkResult verifies internal consistency: reported profit matches the
// subset, and the subset respects the capacity.
func checkResult(t *testing.T, items []Item, capacity int64, res Result, label string) {
	t.Helper()
	if len(res.Take) != len(items) {
		t.Fatalf("%s: Take length %d != %d items", label, len(res.Take), len(items))
	}
	var w, p int64
	for i, take := range res.Take {
		if take {
			w += items[i].Weight
			p += items[i].Profit
		}
	}
	if p != res.Profit {
		t.Fatalf("%s: reported profit %d != subset profit %d", label, res.Profit, p)
	}
	if w > capacity {
		t.Fatalf("%s: subset weight %d exceeds capacity %d", label, w, capacity)
	}
}

func TestExactSolversAgreeWithBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(12)
		items := randomItems(rng, n, 20, 30)
		capacity := rng.Int63n(80)
		want := bruteForce(items, capacity)

		dw, err := DPByWeight(items, capacity)
		if err != nil {
			t.Fatalf("DPByWeight: %v", err)
		}
		checkResult(t, items, capacity, dw, "DPByWeight")
		if dw.Profit != want {
			t.Fatalf("DPByWeight = %d, want %d (items=%v cap=%d)", dw.Profit, want, items, capacity)
		}

		dp, err := DPByProfit(items, capacity)
		if err != nil {
			t.Fatalf("DPByProfit: %v", err)
		}
		checkResult(t, items, capacity, dp, "DPByProfit")
		if dp.Profit != want {
			t.Fatalf("DPByProfit = %d, want %d", dp.Profit, want)
		}

		bb, ok, err := BranchBound(items, capacity, maxBBNodes)
		if err != nil || !ok {
			t.Fatalf("BranchBound: ok=%v err=%v", ok, err)
		}
		checkResult(t, items, capacity, bb, "BranchBound")
		if bb.Profit != want {
			t.Fatalf("BranchBound = %d, want %d", bb.Profit, want)
		}

		mm, err := MeetInMiddle(items, capacity)
		if err != nil {
			t.Fatalf("MeetInMiddle: %v", err)
		}
		checkResult(t, items, capacity, mm, "MeetInMiddle")
		if mm.Profit != want {
			t.Fatalf("MeetInMiddle = %d, want %d", mm.Profit, want)
		}
	}
}

func TestExactSolversAgreeOnLargerInstances(t *testing.T) {
	// Beyond brute-force reach: cross-check the independent exact methods
	// against each other.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 40; trial++ {
		n := 20 + rng.Intn(16)
		items := randomItems(rng, n, 50, 60)
		capacity := rng.Int63n(400) + 50

		dw, err := DPByWeight(items, capacity)
		if err != nil {
			t.Fatalf("DPByWeight: %v", err)
		}
		bb, ok, err := BranchBound(items, capacity, 50_000_000)
		if err != nil || !ok {
			t.Fatalf("BranchBound: ok=%v err=%v", ok, err)
		}
		mm, err := MeetInMiddle(items, capacity)
		if err != nil {
			t.Fatalf("MeetInMiddle: %v", err)
		}
		if dw.Profit != bb.Profit || dw.Profit != mm.Profit {
			t.Fatalf("exact solvers disagree: DP=%d BB=%d MiM=%d", dw.Profit, bb.Profit, mm.Profit)
		}
	}
}

func TestGreedyHalfApproximation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(14)
		items := randomItems(rng, n, 25, 40)
		capacity := rng.Int63n(100)
		want := bruteForce(items, capacity)
		g, err := Greedy(items, capacity)
		if err != nil {
			t.Fatalf("Greedy: %v", err)
		}
		checkResult(t, items, capacity, g, "Greedy")
		if 2*g.Profit < want {
			t.Fatalf("Greedy %d < OPT/2 (OPT=%d): items=%v cap=%d", g.Profit, want, items, capacity)
		}
	}
}

func TestFPTASGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, eps := range []float64{0.5, 0.2, 0.05} {
		for trial := 0; trial < 100; trial++ {
			n := 1 + rng.Intn(13)
			items := randomItems(rng, n, 30, 1000)
			capacity := rng.Int63n(150)
			want := bruteForce(items, capacity)
			res, err := FPTAS(items, capacity, eps)
			if err != nil {
				t.Fatalf("FPTAS: %v", err)
			}
			checkResult(t, items, capacity, res, "FPTAS")
			if float64(res.Profit) < (1-eps)*float64(want)-1e-9 {
				t.Fatalf("FPTAS(%v) = %d < (1-eps)·OPT (OPT=%d)", eps, res.Profit, want)
			}
		}
	}
}

func TestFractionalBoundDominatesOPT(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(12)
		items := randomItems(rng, n, 20, 30)
		capacity := rng.Int63n(80)
		want := bruteForce(items, capacity)
		if b := FractionalBound(items, capacity); b < float64(want)-1e-9 {
			t.Fatalf("FractionalBound %v < OPT %d", b, want)
		}
	}
}

func TestSolveDispatcher(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(12)
		items := randomItems(rng, n, 20, 30)
		capacity := rng.Int63n(80)
		want := bruteForce(items, capacity)
		res, exact, err := Solve(items, capacity, Options{})
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		checkResult(t, items, capacity, res, "Solve")
		if !exact {
			t.Fatal("small instances should be solved exactly")
		}
		if res.Profit != want {
			t.Fatalf("Solve = %d, want %d", res.Profit, want)
		}
	}
}

func TestSolveForceApprox(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	items := randomItems(rng, 15, 20, 500)
	capacity := int64(100)
	want := bruteForce(items, capacity)
	res, exact, err := Solve(items, capacity, Options{Eps: 0.1})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if exact {
		t.Error("Eps > 0 must not report exactness")
	}
	if float64(res.Profit) < 0.9*float64(want) {
		t.Errorf("forced FPTAS %d < 0.9·OPT (%d)", res.Profit, want)
	}
}

func TestEdgeCases(t *testing.T) {
	// empty item set
	for name, f := range map[string]func([]Item, int64) (Result, error){
		"DPByWeight": DPByWeight,
		"DPByProfit": DPByProfit,
		"Greedy":     Greedy,
		"MiM":        MeetInMiddle,
	} {
		res, err := f(nil, 10)
		if err != nil {
			t.Errorf("%s(nil): %v", name, err)
		}
		if res.Profit != 0 {
			t.Errorf("%s(nil) profit = %d", name, res.Profit)
		}
	}
	// zero capacity with zero-weight items: free profit must be taken
	items := []Item{{Weight: 0, Profit: 5}, {Weight: 3, Profit: 10}}
	res, err := DPByWeight(items, 0)
	if err != nil || res.Profit != 5 {
		t.Errorf("zero capacity: profit=%d err=%v, want 5", res.Profit, err)
	}
	g, err := Greedy(items, 0)
	if err != nil || g.Profit != 5 {
		t.Errorf("greedy zero capacity: profit=%d err=%v, want 5", g.Profit, err)
	}
	// item heavier than capacity is never taken
	res, err = DPByWeight([]Item{{Weight: 100, Profit: 99}}, 10)
	if err != nil || res.Profit != 0 || res.Take[0] {
		t.Errorf("oversized item: %+v err=%v", res, err)
	}
}

func TestValidationErrors(t *testing.T) {
	bad := []Item{{Weight: -1, Profit: 1}}
	if _, err := DPByWeight(bad, 10); err == nil {
		t.Error("negative weight must be rejected")
	}
	if _, err := DPByWeight([]Item{{Weight: 1, Profit: -1}}, 10); err == nil {
		t.Error("negative profit must be rejected")
	}
	if _, err := Greedy([]Item{{1, 1}}, -1); err == nil {
		t.Error("negative capacity must be rejected")
	}
	if _, err := FPTAS([]Item{{1, 1}}, 10, 0); err == nil {
		t.Error("eps=0 must be rejected")
	}
	if _, err := FPTAS([]Item{{1, 1}}, 10, 1); err == nil {
		t.Error("eps=1 must be rejected")
	}
	if _, err := FPTAS([]Item{{1, 1}}, 10, math.NaN()); err == nil {
		t.Error("eps=NaN must be rejected")
	}
	if _, err := MeetInMiddle(make([]Item, MaxMeetInMiddle+1), 1); err == nil {
		t.Error("oversized MeetInMiddle input must be rejected")
	}
}

func TestDPBudgetExceeded(t *testing.T) {
	items := []Item{{Weight: 1, Profit: 1}}
	if _, err := DPByWeight(items, MaxDPCells); err == nil {
		t.Error("oversized weight table must be refused")
	}
	big := []Item{{Weight: 1, Profit: MaxDPCells}}
	if _, err := DPByProfit(big, 1); err == nil {
		t.Error("oversized profit table must be refused")
	}
}

// TestDPGuardsDoNotWrap pins the table-size guards at sizes where the old
// (n+1)·(last+1) product wrapped past math.MaxInt64: the DPs must refuse
// the table, and Solve must fall through to BranchBound, without a panic
// and without allocating a table.
func TestDPGuardsDoNotWrap(t *testing.T) {
	noPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s panicked: %v", name, r)
			}
		}()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("%s allocated %d bytes", name, grew)
		}
	}
	items := []Item{{Weight: 3, Profit: 4}, {Weight: 5, Profit: 6}, {Weight: 1 << 61, Profit: 7}}
	for _, n := range []int{1, 2, 3} { // (n+1)·2^63 wraps to 0 or to MinInt64
		noPanic(fmt.Sprintf("DPByWeight n=%d", n), func() {
			if _, err := DPByWeight(items[:n], math.MaxInt64); err == nil {
				t.Errorf("DPByWeight n=%d: capacity MaxInt64 must be refused", n)
			}
		})
		noPanic(fmt.Sprintf("Solve n=%d", n), func() {
			res, exact, err := Solve(items[:n], math.MaxInt64, Options{})
			if err != nil || !exact || res.Profit != bruteForce(items[:n], math.MaxInt64) {
				t.Errorf("Solve n=%d at capacity MaxInt64: %+v exact=%v err=%v", n, res, exact, err)
			}
		})
	}
	for _, profits := range [][]int64{
		{math.MaxInt64},                             // P+1 wraps to MinInt64
		{math.MaxInt64 / 2, math.MaxInt64 / 2},      // P = MaxInt64-1: (n+1)·(P+1) wraps
		{math.MaxInt64 / 2, math.MaxInt64/2 + 1, 1}, // the sum itself passes MaxInt64
		{1 << 62, 1 << 62, 1 << 62, 1 << 62},        // and wraps to 0
	} {
		ps := make([]Item, len(profits))
		for i, p := range profits {
			ps[i] = Item{Weight: 1, Profit: p}
		}
		noPanic(fmt.Sprintf("DPByProfit %v", profits), func() {
			_, err := DPByProfit(ps, 2)
			if err == nil {
				t.Errorf("DPByProfit %v: profit table must be refused", profits)
			} else if strings.Contains(err.Error(), "9223372036854775808") {
				t.Errorf("DPByProfit %v: error reports a wrapped column count: %v", profits, err)
			}
		})
	}
}

func TestResultHelpers(t *testing.T) {
	items := []Item{{2, 3}, {4, 5}, {6, 7}}
	res := Result{Profit: 8, Take: []bool{true, false, true}}
	if w := res.Weight(items); w != 8 {
		t.Errorf("Weight = %d, want 8", w)
	}
	if c := res.Count(); c != 2 {
		t.Errorf("Count = %d, want 2", c)
	}
}

func TestByDensityOrdering(t *testing.T) {
	items := []Item{{Weight: 2, Profit: 2}, {Weight: 0, Profit: 1}, {Weight: 1, Profit: 3}}
	order := byDensity(items)
	if order[0] != 1 {
		t.Errorf("zero-weight item should sort first, got order %v", order)
	}
	if order[1] != 2 {
		t.Errorf("density-3 item should sort second, got order %v", order)
	}
}

// TestCrossCmpExact checks CrossCmp against big.Int products on small
// operands (the int64 fast path), on operands near 2^62 and math.MaxInt64
// whose products pass 2^63, and on the boundary between the two paths.
func TestCrossCmpExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	edges := []int64{0, 1, 2, 1<<31 - 1, 1 << 31, 1<<32 + 1, 1 << 62, 1<<62 + 3, math.MaxInt64 - 1, math.MaxInt64}
	operand := func() int64 {
		switch rng.Intn(3) {
		case 0:
			return edges[rng.Intn(len(edges))]
		case 1:
			return rng.Int63n(1 << 31)
		}
		return rng.Int63()
	}
	for k := 0; k < 100000; k++ {
		a, b, c, d := operand(), operand(), operand(), operand()
		lhs := new(big.Int).Mul(big.NewInt(a), big.NewInt(b))
		rhs := new(big.Int).Mul(big.NewInt(c), big.NewInt(d))
		if got, want := CrossCmp(a, b, c, d), lhs.Cmp(rhs); got != want {
			t.Fatalf("CrossCmp(%d, %d, %d, %d) = %d, big.Int says %d", a, b, c, d, got, want)
		}
	}
	// The density order itself: item 1 (2^41/(2^62+1)) is denser than
	// item 0 (2^40/2^62), but their cross products 2^103 and 2^102+2^40
	// wrap to 0 and 2^40 in int64, which put item 0 first.
	items := []Item{{Weight: 1 << 62, Profit: 1 << 40}, {Weight: 1<<62 + 1, Profit: 1 << 41}, {Weight: 3, Profit: 1}}
	if order := byDensity(items); order[0] != 2 || order[1] != 1 || order[2] != 0 {
		t.Errorf("byDensity at demands near 2^62 = %v, want [2 1 0]", order)
	}
}

func TestBranchBoundBudget(t *testing.T) {
	// A tiny node budget must still return a feasible (if suboptimal)
	// solution and report ok=false.
	rng := rand.New(rand.NewSource(8))
	items := randomItems(rng, 30, 1000, 1000)
	res, ok, err := BranchBound(items, 5000, 10)
	if err != nil {
		t.Fatalf("BranchBound: %v", err)
	}
	if ok {
		t.Error("10-node budget on n=30 should be exhausted")
	}
	checkResult(t, items, 5000, res, "BranchBound(budget)")
}
