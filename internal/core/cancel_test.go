package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"sectorpack/internal/angular"
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

// refUpperBound is UpperBound as it was before it consulted a context, the
// reference the bound must stay bit-identical to.
func refUpperBound(in *model.Instance) float64 {
	total := float64(in.TotalProfit())
	var sum float64
	for j := range in.Antennas {
		best := 0.0
		for _, alpha := range angular.Candidates(in, j) {
			items, _ := angular.WindowItems(in, j, alpha, nil)
			if len(items) == 0 {
				continue
			}
			if b := knapsack.FractionalBound(items, in.Antennas[j].Capacity); b > best {
				best = b
			}
		}
		sum += best
	}
	if sum < total {
		return sum
	}
	return total
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
// cancellation between antennas, and that uncancelled it is bit-identical
// to the bound before it consulted a context.
func TestUpperBoundContext(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 30; trial++ {
		in := randInstance(rng, 1+rng.Intn(40), 1+rng.Intn(4), model.Variant(trial%3))
		want := math.Float64bits(refUpperBound(in))
		got, err := UpperBoundContext(context.Background(), in)
		if err != nil || math.Float64bits(got) != want {
			t.Fatalf("trial %d: UpperBoundContext = %v, %v; want %v", trial, got, err, refUpperBound(in))
		}
		sol, err := SolveGreedy(context.Background(), in, Options{})
		if err != nil || math.Float64bits(sol.UpperBound) != want {
			t.Fatalf("trial %d: greedy bound %v (err %v), want %v", trial, sol.UpperBound, err, refUpperBound(in))
		}
	}

	in := randInstance(rng, 30, 3, model.Sectors)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := UpperBoundContext(ctx, in); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: err = %v, want context.Canceled", err)
	}
	// Cancelled after the first antenna: the second check must see it.
	if _, err := UpperBoundContext(&errAfter{Context: context.Background(), n: 1}, in); !errors.Is(err, context.Canceled) {
		t.Fatalf("ctx cancelled mid-bound: err = %v, want context.Canceled", err)
	}
}
