package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"sectorpack/internal/angular"
	"sectorpack/internal/gen"
	"sectorpack/internal/geom"
	"sectorpack/internal/knapsack"
	"sectorpack/internal/model"
)

// TestSolversHonorCancelledContext runs every registered solver under an
// already-cancelled context: each must return context.Canceled without
// doing any work or returning a partial assignment.
func TestSolversHonorCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range Names() {
		if strings.HasPrefix(name, "test-") {
			continue // misbehaving solvers injected by the fault harness
		}
		variant := model.Sectors
		if name == "disjoint-dp" {
			variant = model.DisjointAngles
		}
		in := randInstance(rand.New(rand.NewSource(3)), 12, 2, variant)
		// Unit demands keep the instance inside every solver's domain
		// (unitflow rejects non-unit demands before it looks at ctx).
		for i := range in.Customers {
			in.Customers[i].Demand, in.Customers[i].Profit = 1, 1
		}
		solver, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := solver(ctx, in, Options{Seed: 1})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
		if sol.Assignment != nil {
			t.Errorf("%s: cancelled solve returned a partial assignment", name)
		}
	}
}

// TestGreedyCancelledMidRun cancels a large greedy solve (n=800) shortly
// after it starts; the solver must notice at an iteration boundary and
// return promptly.
func TestGreedyCancelledMidRun(t *testing.T) {
	in := randInstance(rand.New(rand.NewSource(4)), 800, 6, model.Sectors)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := SolveGreedy(ctx, in, Options{Seed: 1})
		done <- err
	}()
	time.Sleep(time.Millisecond)
	cancel()
	select {
	case err := <-done:
		// nil means the solve beat the cancellation — acceptable, the
		// point is that it never hangs and never reports a bogus error.
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled or nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("greedy did not return promptly after cancellation")
	}
}

// TestUncancelledBackgroundUnchanged pins the contract that threading
// contexts through changed nothing for uncancelled runs: two solves under
// background contexts are bit-identical.
func TestUncancelledBackgroundUnchanged(t *testing.T) {
	in := randInstance(rand.New(rand.NewSource(5)), 40, 3, model.Sectors)
	a, err := SolveLocalSearch(context.Background(), in, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	b, err := SolveLocalSearch(ctx, in, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if a.Profit != b.Profit {
		t.Fatalf("profit differs under live context: %d vs %d", a.Profit, b.Profit)
	}
	for j := range a.Assignment.Orientation {
		if math.Float64bits(a.Assignment.Orientation[j]) != math.Float64bits(b.Assignment.Orientation[j]) {
			t.Fatalf("orientation %d differs under live context", j)
		}
	}
}

// scanCandidates is the scan reference of an engine's candidate angles: the
// angles of every customer radially within the antenna's reach, sorted
// ascending and deduplicated within geom.Eps.
func scanCandidates(in *model.Instance, antenna int) []float64 {
	a := in.Antennas[antenna]
	var thetas []float64
	for _, c := range in.Customers {
		if a.InRange(c) {
			thetas = append(thetas, c.Theta)
		}
	}
	sort.Float64s(thetas)
	var out []float64
	for _, th := range thetas {
		if len(out) == 0 || th-out[len(out)-1] > geom.Eps {
			out = append(out, th)
		}
	}
	return out
}

// scanWindowItems is the scan reference of a window's members: the
// knapsack items of the active customers (active == nil: all) that the
// antenna covers at alpha, with their indices, in ascending index.
func scanWindowItems(in *model.Instance, antenna int, alpha float64, active []bool) ([]knapsack.Item, []int) {
	var items []knapsack.Item
	var ids []int
	for i, c := range in.Customers {
		if (active == nil || active[i]) && in.Antennas[antenna].Covers(alpha, c) {
			items = append(items, knapsack.Item{Weight: c.Demand, Profit: c.Profit})
			ids = append(ids, i)
		}
	}
	return items, ids
}

// refUpperBound is UpperBound as it was before it consulted a context or
// an engine, the reference the bound must stay bit-identical to: the scan
// reference over candidate angles found by a scan too.
func refUpperBound(in *model.Instance) float64 {
	return scanUpperBound(in, func(j int) []float64 { return scanCandidates(in, j) })
}

// errAfter is a context that reports Canceled from its (n+1)-th Err call
// on, to cancel a computation between two of its ctx checks.
type errAfter struct {
	context.Context
	n int
}

func (c *errAfter) Err() error {
	if c.n == 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// TestUpperBoundContext checks that the bound the solvers end with honours
// cancellation between candidate windows, and that uncancelled it is
// bit-identical to the scan reference, on random instances and on a banded
// n=3000 instance of the 100k-churn tier's shape.
func TestUpperBoundContext(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	check := func(tag string, in *model.Instance) {
		t.Helper()
		want := math.Float64bits(refUpperBound(in))
		got, err := UpperBoundContext(context.Background(), angular.NewEngine(in))
		if err != nil || math.Float64bits(got) != want {
			t.Fatalf("%s: UpperBoundContext = %v, %v; want %v", tag, got, err, refUpperBound(in))
		}
		sol, err := SolveGreedy(context.Background(), in, Options{})
		if err != nil || math.Float64bits(sol.UpperBound) != want {
			t.Fatalf("%s: greedy bound %v (err %v), want %v", tag, sol.UpperBound, err, refUpperBound(in))
		}
	}
	for trial := 0; trial < 30; trial++ {
		check(fmt.Sprintf("trial %d", trial), randInstance(rng, 1+rng.Intn(40), 1+rng.Intn(4), model.Variant(trial%3)))
	}
	cfg, err := gen.Tier("100k-churn")
	if err != nil {
		t.Fatal(err)
	}
	cfg.N = 3000
	check("banded n=3000", gen.MustGenerate(cfg))

	eng := angular.NewEngine(randInstance(rng, 30, 3, model.Sectors))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := UpperBoundContext(ctx, eng); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: err = %v, want context.Canceled", err)
	}
	// Cancelled after the first window: the second check must see it.
	if _, err := UpperBoundContext(&errAfter{Context: context.Background(), n: 1}, eng); !errors.Is(err, context.Canceled) {
		t.Fatalf("ctx cancelled mid-bound: err = %v, want context.Canceled", err)
	}
}
