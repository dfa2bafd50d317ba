package sectorpack_test

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"sectorpack"
	"sectorpack/internal/angular"
)

func TestCoverFacade(t *testing.T) {
	in := sectorpack.MustGenerate(sectorpack.GenConfig{
		Family: sectorpack.Uniform, Variant: sectorpack.Sectors,
		Seed: 8, N: 10, M: 1, Range: 9,
	})
	typ := sectorpack.CoverAntennaType{Rho: 1.5, Range: 12, Capacity: 1 << 40}
	res, err := sectorpack.CoverGreedy(context.Background(), in.Customers, typ)
	if err != nil {
		t.Fatalf("CoverGreedy: %v", err)
	}
	if err := sectorpack.CoverCheck(in.Customers, typ, res); err != nil {
		t.Fatalf("CoverCheck: %v", err)
	}
	ex, err := sectorpack.CoverExact(context.Background(), in.Customers, typ, 0)
	if err != nil {
		t.Fatalf("CoverExact: %v", err)
	}
	if ex.K() > res.K() {
		t.Fatalf("exact %d > greedy %d", ex.K(), res.K())
	}
}

func TestOnlineFacade(t *testing.T) {
	in := sectorpack.MustGenerate(sectorpack.GenConfig{
		Family: sectorpack.Hotspot, Variant: sectorpack.Sectors,
		Seed: 9, N: 40, M: 3,
	})
	orient, err := sectorpack.OrientFromSample(context.Background(), in, 0.4, 2)
	if err != nil {
		t.Fatalf("OrientFromSample: %v", err)
	}
	rng := rand.New(rand.NewSource(1))
	as, err := sectorpack.OnlineRun(in, orient, rng.Perm(in.N()), sectorpack.OnlineBestFit{})
	if err != nil {
		t.Fatalf("OnlineRun: %v", err)
	}
	if err := as.Check(in); err != nil {
		t.Fatalf("infeasible: %v", err)
	}
	uni := sectorpack.OrientUniform(in)
	if len(uni) != in.M() {
		t.Fatalf("OrientUniform length %d", len(uni))
	}
}

func TestRenderASCIIFacade(t *testing.T) {
	in := sectorpack.MustGenerate(sectorpack.GenConfig{
		Family: sectorpack.Uniform, Variant: sectorpack.Sectors,
		Seed: 10, N: 15, M: 2,
	})
	sol, err := sectorpack.SolveGreedy(context.Background(), in, sectorpack.Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := sectorpack.RenderASCII(in, sol.Assignment, sectorpack.VizOptions{Rays: true})
	if !strings.Contains(out, "B") {
		t.Error("render missing base station")
	}
}

// TestSolveExactParallelFacade checks that the façade's exact solver
// returns the same answer whether its orientation search runs inline or
// fanned out over workers.
func TestSolveExactParallelFacade(t *testing.T) {
	in := sectorpack.MustGenerate(sectorpack.GenConfig{
		Family: sectorpack.Uniform, Variant: sectorpack.Sectors,
		Seed: 12, N: 8, M: 2,
	})
	solveAt := func(workers int) sectorpack.Solution {
		defer angular.SetMaxWorkers(angular.SetMaxWorkers(workers))
		sol, err := sectorpack.SolveExact(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		return sol
	}
	seq, par := solveAt(1), solveAt(4)
	if seq.Profit != par.Profit {
		t.Fatalf("parallel exact %d != sequential %d", par.Profit, seq.Profit)
	}
	for k := range seq.Assignment.Orientation {
		if math.Float64bits(par.Assignment.Orientation[k]) != math.Float64bits(seq.Assignment.Orientation[k]) {
			t.Fatalf("antenna %d: parallel orientation %v != sequential %v", k, par.Assignment.Orientation[k], seq.Assignment.Orientation[k])
		}
	}
	if !slices.Equal(par.Assignment.Owner, seq.Assignment.Owner) {
		t.Fatalf("parallel owners %v != sequential %v", par.Assignment.Owner, seq.Assignment.Owner)
	}
}

// TestFacadeWrappersSmoke exercises every remaining façade entry point on
// one small instance so the public API surface stays wired.
func TestFacadeWrappersSmoke(t *testing.T) {
	in := sectorpack.MustGenerate(sectorpack.GenConfig{
		Family: sectorpack.Uniform, Variant: sectorpack.Sectors,
		Seed: 13, N: 10, M: 2,
	})
	for name, f := range map[string]func(context.Context, *sectorpack.Instance, sectorpack.Options) (sectorpack.Solution, error){
		"lpround":  sectorpack.SolveLPRound,
		"unitflow": nil, // needs unit demands; handled below
		"auto":     sectorpack.SolveAuto,
	} {
		if f == nil {
			continue
		}
		sol, err := f(context.Background(), in, sectorpack.Options{Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := sol.Assignment.Check(in); err != nil {
			t.Fatalf("%s infeasible: %v", name, err)
		}
	}
	unit := sectorpack.MustGenerate(sectorpack.GenConfig{
		Family: sectorpack.Uniform, Variant: sectorpack.Sectors,
		Seed: 13, N: 10, M: 2, UnitDemand: true,
	})
	if _, err := sectorpack.SolveUnitFlow(context.Background(), unit, sectorpack.Options{}); err != nil {
		t.Fatalf("unitflow: %v", err)
	}
	dis := sectorpack.MustGenerate(sectorpack.GenConfig{
		Family: sectorpack.Uniform, Variant: sectorpack.DisjointAngles,
		Seed: 13, N: 8, M: 2, Rho: 1.0,
	})
	if _, err := sectorpack.SolveDisjointDP(context.Background(), dis, sectorpack.Options{}); err != nil {
		t.Fatalf("disjoint-dp: %v", err)
	}
	if _, err := sectorpack.ConfigLPBound(in); err != nil {
		t.Fatalf("ConfigLPBound: %v", err)
	}
	split, err := sectorpack.SolveSplittable(context.Background(), in, sectorpack.Options{})
	if err != nil {
		t.Fatalf("splittable: %v", err)
	}
	if err := split.Check(in); err != nil {
		t.Fatalf("splittable infeasible: %v", err)
	}
	small := sectorpack.MustGenerate(sectorpack.GenConfig{
		Family: sectorpack.Uniform, Variant: sectorpack.Sectors,
		Seed: 14, N: 6, M: 1,
	})
	if _, err := sectorpack.SolveSplittableExact(context.Background(), small); err != nil {
		t.Fatalf("splittable exact: %v", err)
	}
	if _, err := sectorpack.SolveFair(context.Background(), in, nil, sectorpack.Options{}); err != nil {
		t.Fatalf("fair: %v", err)
	}
	multi := &sectorpack.MultiInstance{
		Customers: []sectorpack.MultiCustomer{{Pos: sectorpack.XY{X: 2}, Demand: 1}},
		Stations: []sectorpack.MultiStation{{Antennas: []sectorpack.Antenna{
			{Rho: 1, Range: 5, Capacity: 4},
		}}},
	}
	multi.Normalize()
	if _, _, err := sectorpack.SolveMultiGreedy(context.Background(), multi, sectorpack.Options{}); err != nil {
		t.Fatalf("multi: %v", err)
	}
}
