package angular

import (
	"context"
	"math/rand"
	"testing"

	"sectorpack/internal/geom"
	"sectorpack/internal/knapsack"
	"sectorpack/internal/model"
)

// knapsackExact is a tiny exact knapsack via branch and bound for oracles.
func knapsackExact(items []knapsack.Item, capacity int64) (int64, error) {
	res, _, err := knapsack.BranchBound(items, capacity, 1<<40)
	return res.Profit, err
}

// singleAntennaOracle computes the true optimum for one antenna by subset
// enumeration: a subset is servable iff it fits the capacity and some
// candidate orientation covers all of it.
func singleAntennaOracle(in *model.Instance) int64 {
	n := in.N()
	a := in.Antennas[0]
	cands := scanCandidates(in, 0)
	var best int64
	for mask := 0; mask < 1<<n; mask++ {
		var demand, profit int64
		ok := true
		for i := 0; i < n && ok; i++ {
			if mask&(1<<i) != 0 {
				demand += in.Customers[i].Demand
				profit += in.Customers[i].Profit
			}
		}
		if demand > a.Capacity || profit <= best {
			continue
		}
		covered := false
		for _, alpha := range cands {
			all := true
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 && !a.Covers(alpha, in.Customers[i]) {
					all = false
					break
				}
			}
			if all {
				covered = true
				break
			}
		}
		if covered && ok {
			best = profit
		}
	}
	return best
}

func TestBestWindowMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 60; trial++ {
		in := randInstance(rng, 1+rng.Intn(9), 1, model.Sectors)
		want := singleAntennaOracle(in)
		win, err := NewEngine(in).BestWindow(context.Background(), 0, nil, knapsack.Options{})
		if err != nil {
			t.Fatalf("BestWindow: %v", err)
		}
		if !win.Exact {
			t.Fatal("small instance should be solved exactly")
		}
		if win.Profit != want {
			t.Fatalf("BestWindow = %d, want %d", win.Profit, want)
		}
		// feasibility of the reported window
		var demand int64
		for _, i := range win.Customers {
			if !in.Antennas[0].Covers(win.Alpha, in.Customers[i]) {
				t.Fatalf("customer %d not covered at α=%v", i, win.Alpha)
			}
			demand += in.Customers[i].Demand
		}
		if demand > in.Antennas[0].Capacity {
			t.Fatalf("window demand %d exceeds capacity", demand)
		}
	}
}

func TestBestWindowParallelMatchesSequential(t *testing.T) {
	// Enough candidates to trigger the parallel path; the result must be
	// identical to the sequential oracle because evaluation is pure.
	rng := rand.New(rand.NewSource(33))
	in := randInstance(rng, 60, 1, model.Sectors)
	win, err := NewEngine(in).BestWindow(context.Background(), 0, nil, knapsack.Options{})
	if err != nil {
		t.Fatalf("BestWindow: %v", err)
	}
	// sequential re-evaluation
	var best int64
	for _, alpha := range scanCandidates(in, 0) {
		items, _ := scanWindowItems(in, 0, alpha, nil)
		if len(items) == 0 {
			continue
		}
		p, err := knapsackExact(items, in.Antennas[0].Capacity)
		if err != nil {
			t.Fatalf("oracle: %v", err)
		}
		if p > best {
			best = p
		}
	}
	if win.Profit != best {
		t.Fatalf("parallel BestWindow = %d, sequential = %d", win.Profit, best)
	}
}

func TestBestWindowRespectsActiveMask(t *testing.T) {
	in := instWith(
		[]model.Customer{
			{Theta: 0.2, R: 1, Demand: 5, Profit: 100},
			{Theta: 0.3, R: 1, Demand: 5, Profit: 1},
		},
		[]model.Antenna{{Rho: 1, Range: 10, Capacity: 10}},
		model.Sectors,
	)
	active := []bool{false, true}
	win, err := NewEngine(in).BestWindow(context.Background(), 0, active, knapsack.Options{})
	if err != nil {
		t.Fatalf("BestWindow: %v", err)
	}
	if win.Profit != 1 || len(win.Customers) != 1 || win.Customers[0] != 1 {
		t.Fatalf("window should only use active customers: %+v", win)
	}
}

func TestBestWindowEmptyInstance(t *testing.T) {
	in := instWith(nil, []model.Antenna{{Rho: 1, Range: 10, Capacity: 10}}, model.Sectors)
	win, err := NewEngine(in).BestWindow(context.Background(), 0, nil, knapsack.Options{})
	if err != nil {
		t.Fatalf("BestWindow: %v", err)
	}
	if win.Profit != 0 || len(win.Customers) != 0 {
		t.Fatalf("empty instance window = %+v", win)
	}
}

func TestBestWindowZeroCapacity(t *testing.T) {
	in := instWith(
		[]model.Customer{{Theta: 0.2, R: 1, Demand: 5}},
		[]model.Antenna{{Rho: 1, Range: 10, Capacity: 0}},
		model.Sectors,
	)
	win, err := NewEngine(in).BestWindow(context.Background(), 0, nil, knapsack.Options{})
	if err != nil {
		t.Fatalf("BestWindow: %v", err)
	}
	if win.Profit != 0 {
		t.Fatalf("zero capacity must serve nothing, got %+v", win)
	}
}

func TestBetterFoldExactness(t *testing.T) {
	a := Window{Profit: 5, Exact: true}
	b := Window{Profit: 3, Exact: false}
	merged := better(a, b)
	if merged.Exact {
		t.Error("exactness must AND across candidates")
	}
	if merged.Profit != 5 {
		t.Error("higher profit must win")
	}
	_ = geom.TwoPi
}
