package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"sectorpack/internal/gen"
	"sectorpack/internal/model"
)

// The goldens below were captured from the pre-fail-soft pipeline (commit
// 6c65004) by running every registered solver on the two fixed instances.
// They pin the PR-3 determinism guarantee: panic isolation, the registry's
// Safe wrapper, and the hedged pipeline must leave an uncancelled,
// non-degraded solve byte-identical — same profit, same orientations (full
// float64 precision), same owners.
var goldenSolves = map[string]string{
	"anneal":      "profit=4 alg=anneal orient=[2.2255965865489049,4.3871433096762162] owner=[-1,-1,1,0,-1,0,-1,-1,-1,1]",
	"auto":        "profit=4 alg=auto/exact orient=[2.2255965865489049,4.3871433096762162] owner=[-1,-1,1,0,-1,0,-1,-1,-1,1]",
	"baseline":    "profit=1 alg=baseline orient=[0,3.1415926535897931] owner=[-1,-1,-1,-1,-1,-1,-1,0,-1,-1]",
	"disjoint-dp": "profit=28 alg=disjoint-dp orient=[4.1681646696392463,5.8107576220157924] owner=[1,0,-1,-1,-1,1,0,-1,1,-1]",
	"exact":       "profit=4 alg=exact orient=[2.2255965865489049,4.3871433096762162] owner=[-1,-1,1,0,-1,0,-1,-1,-1,1]",
	"greedy":      "profit=4 alg=greedy orient=[2.2255965865489049,4.3871433096762162] owner=[-1,-1,1,0,-1,0,-1,-1,-1,1]",
	"localsearch": "profit=4 alg=localsearch orient=[2.2255965865489049,4.3871433096762162] owner=[-1,-1,1,0,-1,0,-1,-1,-1,1]",
	"lpround":     "profit=4 alg=lpround orient=[2.2255965865489049,4.3871433096762162] owner=[-1,-1,1,0,-1,0,-1,-1,-1,1]",
	"unitflow":    "profit=4 alg=unitflow orient=[2.2255965865489049,4.3871433096762162] owner=[-1,-1,1,0,-1,0,-1,-1,-1,1]",
}

func goldenSectorsInstance() *model.Instance {
	return gen.MustGenerate(gen.Config{Family: gen.Uniform, Seed: 7, N: 10, M: 2, Variant: model.Sectors, UnitDemand: true})
}

func goldenDisjointInstance() *model.Instance {
	return gen.MustGenerate(gen.Config{Family: gen.Uniform, Seed: 11, N: 10, M: 2, Variant: model.DisjointAngles})
}

func solveFingerprint(sol model.Solution) string {
	var b strings.Builder
	fmt.Fprintf(&b, "profit=%d alg=%s orient=[", sol.Profit, sol.Algorithm)
	for i, o := range sol.Assignment.Orientation {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "%.17g", o)
	}
	b.WriteString("] owner=[")
	for i, o := range sol.Assignment.Owner {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "%d", o)
	}
	b.WriteString("]")
	return b.String()
}

// TestRegistrySolversMatchPrePRGoldens is the determinism guard: every
// built-in solver, resolved through the (now Safe-wrapping) registry with
// no cancellation, must reproduce the pre-PR solution exactly.
func TestRegistrySolversMatchPrePRGoldens(t *testing.T) {
	for name, want := range goldenSolves {
		in := goldenSectorsInstance()
		if name == "disjoint-dp" {
			in = goldenDisjointInstance()
		}
		solver, err := Get(name)
		if err != nil {
			t.Fatalf("Get(%s): %v", name, err)
		}
		sol, err := solver(context.Background(), in, Options{Seed: 1})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if got := solveFingerprint(sol); got != want {
			t.Errorf("%s drifted from pre-PR behavior:\n got  %s\n want %s", name, got, want)
		}
	}
}

// TestGoldensCoverAllBuiltins forces this guard to grow with the registry:
// a newly registered built-in solver must record its golden.
func TestGoldensCoverAllBuiltins(t *testing.T) {
	for _, name := range Names() {
		if strings.HasPrefix(name, "test-") {
			continue // solvers injected by other tests in this package
		}
		if _, ok := goldenSolves[name]; !ok {
			t.Errorf("registered solver %q has no determinism golden; capture one and add it to goldenSolves", name)
		}
	}
}

// TestSolveBatchMatchesGoldens extends the determinism guard through the
// batching layer: every registered solver, run over a batch of identical
// instances on the worker pool, must put the exact golden bytes in every
// slot — batching may change scheduling, never answers.
func TestSolveBatchMatchesGoldens(t *testing.T) {
	for name, want := range goldenSolves {
		mk := goldenSectorsInstance
		if name == "disjoint-dp" {
			mk = goldenDisjointInstance
		}
		solver, err := Get(name)
		if err != nil {
			t.Fatalf("Get(%s): %v", name, err)
		}
		ins := []*model.Instance{mk(), mk(), mk()}
		results := SolveBatch(context.Background(), ins, solver, BatchOptions{
			Options:    Options{Seed: 1},
			SolverName: name,
		})
		for i, r := range results {
			if r.Err != nil {
				t.Errorf("%s item %d: %v", name, i, r.Err)
				continue
			}
			if got := solveFingerprint(r.Solution); got != want {
				t.Errorf("%s item %d drifted from golden through the batch path:\n got  %s\n want %s", name, i, got, want)
			}
		}
	}
}

// TestHedgedSolveMatchesGoldensWhenHealthy extends the guard through the
// hedged pipeline: with a healthy primary and no deadline, SolveHedged
// must return the same bytes as the plain registry solve.
func TestHedgedSolveMatchesGoldensWhenHealthy(t *testing.T) {
	for name, want := range goldenSolves {
		in := goldenSectorsInstance()
		if name == "disjoint-dp" {
			in = goldenDisjointInstance()
		}
		solver, err := Get(name)
		if err != nil {
			t.Fatalf("Get(%s): %v", name, err)
		}
		sol, err := SolveHedged(context.Background(), in, solver, HedgeOptions{
			Options:     Options{Seed: 1},
			PrimaryName: name,
		})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if sol.Degraded() {
			t.Errorf("%s: healthy hedged solve marked Degraded (%s: %s)", name, sol.FallbackReason, sol.FallbackDetail)
		}
		if got := solveFingerprint(sol); got != want {
			t.Errorf("%s hedged solve drifted from pre-PR behavior:\n got  %s\n want %s", name, got, want)
		}
	}
}
