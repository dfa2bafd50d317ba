package core

import (
	"context"
	"fmt"
	"math/rand"
	goreflect "reflect" // metamorphic_test.go declares reflect
	"strings"
	"testing"

	"sectorpack/internal/angular"
	"sectorpack/internal/exact"
	"sectorpack/internal/gen"
	"sectorpack/internal/knapsack"
	"sectorpack/internal/model"
)

// TestRegistryHonorsEveryOptionsField guards against a registry entry
// dropping Options on the floor (the "exact" entry once ran with default
// limits whatever the caller asked). Every top-level Options field has a
// row naming a registry solver and a non-default value that must change
// that solver's Solution or error; a field added without a row fails. The
// cache fingerprint's coverage of the same fields is pinned separately by
// TestFingerprintSensitiveToEveryOptionsField.
func TestRegistryHonorsEveryOptionsField(t *testing.T) {
	tiny := randInstance(rand.New(rand.NewSource(11)), 6, 2, model.Sectors)
	contended := gen.MustGenerate(gen.Config{Family: gen.Rings, Seed: 1, N: 80, M: 3,
		Variant: model.Sectors, Rho: 1.5, ProfitSpread: 0.7, Tightness: 2})
	rows := map[string]struct {
		solver string
		in     *model.Instance
		set    func(*Options)
		want   string // substring the non-default outcome must contain
	}{
		// MaxTuples = 1 is exceeded by any non-trivial instance, so the
		// solve must fail with the budget error instead of running under
		// the 5M-tuple default.
		"ExactLimits": {"exact", tiny, func(o *Options) { o.ExactLimits.MaxTuples = 1 }, "budget"},
		"Knapsack":    {"greedy", contended, func(o *Options) { o.Knapsack = knapsack.Options{Eps: 0.9} }, ""},
		"Seed":        {"anneal", contended, func(o *Options) { o.Seed = 7 }, ""},
		"SkipBound":   {"greedy", contended, func(o *Options) { o.SkipBound = true }, " ub=0 "},
	}
	outcome := func(name string, in *model.Instance, opt Options) (string, error) {
		solver, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := solver(context.Background(), in, opt)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("profit=%d alg=%s ub=%.17g orient=%.17g owner=%v",
			sol.Profit, sol.Algorithm, sol.UpperBound, sol.Assignment.Orientation, sol.Assignment.Owner), nil
	}
	typ := goreflect.TypeOf(Options{})
	for i := 0; i < typ.NumField(); i++ {
		field := typ.Field(i).Name
		row, ok := rows[field]
		if !ok {
			t.Errorf("Options.%s has no row: name a registry solver it must change", field)
			continue
		}
		delete(rows, field)
		base, err := outcome(row.solver, row.in, Options{})
		if err != nil {
			t.Errorf("Options.%s: %s with default options: %v", field, row.solver, err)
			continue
		}
		var opt Options
		row.set(&opt)
		got, err := outcome(row.solver, row.in, opt)
		if err != nil {
			got = "error: " + err.Error()
		}
		if got == base {
			t.Errorf("Options.%s: %s ignored it (outcome unchanged: %s)", field, row.solver, base)
		}
		if !strings.Contains(got, row.want) {
			t.Errorf("Options.%s: %s outcome %q, want it to contain %q", field, row.solver, got, row.want)
		}
	}
	for field := range rows {
		t.Errorf("row %s names no Options field", field)
	}
}

// TestAutoInheritsExactLimits checks the dispatch path: SolveAuto routes
// tiny instances to the exact solver and must forward Options.ExactLimits.
func TestAutoInheritsExactLimits(t *testing.T) {
	in := randInstance(rand.New(rand.NewSource(12)), 4, 2, model.Sectors)
	opt := Options{}
	opt.ExactLimits.MaxTuples = 1
	_, err := SolveAuto(context.Background(), in, opt)
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("err = %v, want tuple-budget error forwarded through auto dispatch", err)
	}
	sol, err := SolveAuto(context.Background(), in, Options{})
	if err != nil {
		t.Fatalf("default limits: %v", err)
	}
	if !strings.HasPrefix(sol.Algorithm, "auto/exact") {
		t.Fatalf("algorithm %q: expected auto to dispatch to exact on a tiny instance", sol.Algorithm)
	}
}

// TestExactBudgetParity pins that Options.ExactLimits.MaxTuples bounds the
// whole orientation-tuple space on every path into the exact search, at
// every worker count: the instance has 5×5 candidate tuples, so a budget
// of 24 must refuse and 25 must solve, whether the search is reached
// directly, through the registry, or through SolveAuto's dispatch.
func TestExactBudgetParity(t *testing.T) {
	defer angular.SetMaxWorkers(angular.SetMaxWorkers(0))
	in := gen.MustGenerate(gen.Config{Family: gen.Uniform, Variant: model.Sectors, Seed: 3, N: 8, M: 2})
	registryExact, err := Get("exact")
	if err != nil {
		t.Fatal(err)
	}
	paths := map[string]Solver{
		"exact.Solve": func(ctx context.Context, in *model.Instance, opt Options) (model.Solution, error) {
			return exact.Solve(ctx, in, opt.ExactLimits)
		},
		"registry exact": registryExact,
		"SolveAuto":      SolveAuto,
	}
	for _, workers := range []int{1, 4} {
		angular.SetMaxWorkers(workers)
		for name, solve := range paths {
			opt := Options{SkipBound: true}
			opt.ExactLimits.MaxTuples = 24
			if _, err := solve(context.Background(), in, opt); err == nil || !strings.Contains(err.Error(), "exceeds budget 24") {
				t.Errorf("%s, %d workers, MaxTuples 24: err = %v, want the tuple-budget error", name, workers, err)
			}
			opt.ExactLimits.MaxTuples = 25
			if _, err := solve(context.Background(), in, opt); err != nil {
				t.Errorf("%s, %d workers, MaxTuples 25: %v", name, workers, err)
			}
		}
	}
}
