package sectorpack_test

import (
	"context"
	"testing"
	"time"

	"sectorpack"
)

// TestPublicAPIEndToEnd exercises the façade the way the README shows.
func TestPublicAPIEndToEnd(t *testing.T) {
	in := sectorpack.MustGenerate(sectorpack.GenConfig{
		Family: sectorpack.Hotspot, Variant: sectorpack.Sectors,
		Seed: 3, N: 60, M: 3,
	})
	if err := in.Validate(); err != nil {
		t.Fatalf("generated instance invalid: %v", err)
	}
	sol, err := sectorpack.SolveGreedy(context.Background(), in, sectorpack.Options{})
	if err != nil {
		t.Fatalf("SolveGreedy: %v", err)
	}
	if err := sol.Assignment.Check(in); err != nil {
		t.Fatalf("infeasible: %v", err)
	}
	if sol.Profit <= 0 {
		t.Fatal("hotspot instance should serve someone")
	}
	if b := sectorpack.UpperBound(in); float64(sol.Profit) > b+1e-6 {
		t.Fatalf("profit %d above bound %v", sol.Profit, b)
	}
}

func TestPublicSolveDispatch(t *testing.T) {
	in := sectorpack.MustGenerate(sectorpack.GenConfig{
		Family: sectorpack.Uniform, Variant: sectorpack.Angles,
		Seed: 4, N: 20, M: 2,
	})
	names := sectorpack.SolverNames()
	if len(names) < 5 {
		t.Fatalf("SolverNames = %v", names)
	}
	sol, err := sectorpack.Solve(context.Background(), "localsearch", in, sectorpack.Options{Seed: 1})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if err := sol.Assignment.Check(in); err != nil {
		t.Fatalf("infeasible: %v", err)
	}
	if _, err := sectorpack.Solve(context.Background(), "bogus", in, sectorpack.Options{}); err == nil {
		t.Error("unknown solver must error")
	}
}

// TestPublicSolveBatch: the façade batch call solves every item and each
// result matches the corresponding single solve exactly.
func TestPublicSolveBatch(t *testing.T) {
	ins := make([]*sectorpack.Instance, 4)
	for k := range ins {
		ins[k] = sectorpack.MustGenerate(sectorpack.GenConfig{
			Family: sectorpack.Uniform, Variant: sectorpack.Sectors,
			Seed: int64(30 + k), N: 15, M: 2,
		})
	}
	results, err := sectorpack.SolveBatch(context.Background(), "greedy", ins, sectorpack.Options{Seed: 1})
	if err != nil {
		t.Fatalf("SolveBatch: %v", err)
	}
	if len(results) != len(ins) {
		t.Fatalf("got %d results for %d instances", len(results), len(ins))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
		single, err := sectorpack.Solve(context.Background(), "greedy", ins[i], sectorpack.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if r.Solution.Profit != single.Profit {
			t.Errorf("item %d: batch profit %d != single profit %d", i, r.Solution.Profit, single.Profit)
		}
		if err := r.Solution.Assignment.Check(ins[i]); err != nil {
			t.Errorf("item %d infeasible: %v", i, err)
		}
	}
	if _, err := sectorpack.SolveBatch(context.Background(), "bogus", ins, sectorpack.Options{}); err == nil {
		t.Error("unknown solver must error")
	}
}

func TestPublicSolveHedged(t *testing.T) {
	in := sectorpack.MustGenerate(sectorpack.GenConfig{
		Family: sectorpack.Uniform, Variant: sectorpack.Sectors,
		Seed: 6, N: 20, M: 2,
	})
	// Healthy primary: bit-identical to the direct dispatch.
	direct, err := sectorpack.Solve(context.Background(), "greedy", in, sectorpack.Options{Seed: 1})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	hedged, err := sectorpack.SolveHedged(context.Background(), "greedy", in, sectorpack.Options{Seed: 1})
	if err != nil {
		t.Fatalf("SolveHedged: %v", err)
	}
	if hedged.Degraded() || hedged.SolverUsed != "greedy" {
		t.Fatalf("healthy hedge mislabelled: degraded=%v used=%q", hedged.Degraded(), hedged.SolverUsed)
	}
	if hedged.Profit != direct.Profit {
		t.Fatalf("hedged profit %d != direct %d", hedged.Profit, direct.Profit)
	}
	// Expired deadline: the detached greedy fallback still answers.
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	deg, err := sectorpack.SolveHedged(ctx, "exact", in, sectorpack.Options{Seed: 1})
	if err != nil {
		t.Fatalf("SolveHedged degraded: %v", err)
	}
	if !deg.Degraded() || deg.SolverUsed != "greedy" {
		t.Fatalf("degraded hedge mislabelled: degraded=%v used=%q", deg.Degraded(), deg.SolverUsed)
	}
	if err := deg.Assignment.Check(in); err != nil {
		t.Fatalf("degraded solution infeasible: %v", err)
	}
	if _, err := sectorpack.SolveHedged(context.Background(), "bogus", in, sectorpack.Options{}); err == nil {
		t.Error("unknown solver must error")
	}
}

func TestPublicVariantsRoundTrip(t *testing.T) {
	for _, v := range []sectorpack.Variant{sectorpack.Sectors, sectorpack.Angles, sectorpack.DisjointAngles} {
		in := sectorpack.MustGenerate(sectorpack.GenConfig{
			Family: sectorpack.Uniform, Variant: v, Seed: 5, N: 12, M: 2, Rho: 1.0,
		})
		if in.Variant != v {
			t.Errorf("variant %v not stamped", v)
		}
		sol, err := sectorpack.SolveGreedy(context.Background(), in, sectorpack.Options{})
		if err != nil {
			t.Fatalf("greedy on %v: %v", v, err)
		}
		if err := sol.Assignment.Check(in); err != nil {
			t.Fatalf("greedy on %v infeasible: %v", v, err)
		}
	}
}
