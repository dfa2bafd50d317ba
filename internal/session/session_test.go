package session

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"sectorpack/internal/core"
	"sectorpack/internal/gen"
	"sectorpack/internal/model"
)

// solutionString renders a solution at full precision (the cache
// differential suite's shape, plus the upper bound): any drift between the
// incremental and from-scratch paths shows up as a string diff.
func solutionString(sol model.Solution) string {
	return fmt.Sprintf("profit=%d alg=%s degraded=%v ub=%.17g orient=%v owner=%v",
		sol.Profit, sol.Algorithm, sol.Degraded(), sol.UpperBound,
		fmt.Sprintf("%.17g", sol.Assignment.Orientation), sol.Assignment.Owner)
}

func instanceJSON(t *testing.T, in *model.Instance) string {
	t.Helper()
	var buf bytes.Buffer
	if err := model.WriteJSON(&buf, in); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// churnCase picks a trace every solver accepts: disjoint-dp needs the
// DisjointAngles variant, exact needs a tiny instance, unitflow needs unit
// demands; everyone else gets a banded Sectors instance with localized
// churn — the regime the incremental path is built for.
func churnCase(solver string) gen.ChurnConfig {
	switch solver {
	case "disjoint-dp":
		return gen.ChurnConfig{
			Base:  gen.Config{Family: gen.Uniform, Seed: 11, N: 12, M: 2, Variant: model.DisjointAngles},
			Steps: 4, Rate: 0.1,
		}
	case "exact":
		return gen.ChurnConfig{
			Base:  gen.Config{Family: gen.Uniform, Seed: 13, N: 8, M: 2, Tightness: 2},
			Steps: 3, Rate: 0.15,
		}
	case "unitflow":
		return gen.ChurnConfig{
			Base:  gen.Config{Family: gen.Uniform, Seed: 7, N: 30, M: 3, UnitDemand: true, Tightness: 2},
			Steps: 4, Rate: 0.05,
		}
	default:
		return gen.ChurnConfig{
			Base:          gen.Config{Family: gen.Uniform, Seed: 9, N: 60, M: 6, Bands: 3, Tightness: 2, ProfitSpread: 0.4},
			Steps:         5,
			Rate:          0.05,
			Localized:     true,
			CapacityEvery: 2,
		}
	}
}

// TestDifferentialChurnAllSolvers is the session's central correctness
// claim, for every registered solver: after every delta of a generated
// churn trace, the session's incrementally-produced answer is bit-identical
// to a from-scratch solve of the independently materialized instance, and
// the session's instance state matches that materialization byte for byte.
func TestDifferentialChurnAllSolvers(t *testing.T) {
	for _, name := range core.Names() {
		if strings.HasPrefix(name, "test-") {
			continue // solvers injected by other tests in this package tree
		}
		t.Run(name, func(t *testing.T) {
			tr := gen.MustGenerateTrace(churnCase(name))
			opt := Options{Solver: name, Core: core.Options{Seed: 3}}
			solver, err := core.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			fromScratch := func(step int) string {
				mat, err := tr.Materialize(step)
				if err != nil {
					t.Fatalf("materialize %d: %v", step, err)
				}
				sol, err := solver(context.Background(), mat, opt.Core)
				if err != nil {
					t.Fatalf("from-scratch solve at step %d: %v", step, err)
				}
				return solutionString(sol)
			}

			s, err := New(context.Background(), tr.Instance, opt)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := solutionString(s.Solution()), fromScratch(0); got != want {
				t.Fatalf("initial solve drifted:\n got  %s\n want %s", got, want)
			}
			for k, d := range tr.Deltas {
				sol, err := s.Apply(context.Background(), d)
				if err != nil {
					t.Fatalf("delta %d: %v", k, err)
				}
				mat, err := tr.Materialize(k + 1)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := instanceJSON(t, s.Instance()), instanceJSON(t, mat); got != want {
					t.Fatalf("delta %d: session instance diverged from materialization", k)
				}
				if err := core.VerifySolution(name, mat, sol); err != nil {
					t.Fatalf("delta %d: session answer infeasible: %v", k, err)
				}
				if got, want := solutionString(sol), fromScratch(k+1); got != want {
					t.Fatalf("delta %d drifted from from-scratch:\n got  %s\n want %s", k, got, want)
				}
				if got := solutionString(s.Solution()); got != solutionString(sol) {
					t.Fatalf("delta %d: Solution() disagrees with Apply's return", k)
				}
			}
		})
	}
}

// TestCascadeReusesWarmState: on a banded instance with localized churn,
// the incremental machinery must actually fire — sweeps survive the rebase
// and greedy steps replay — otherwise the differential suite is only
// testing a slow path that never ships.
func TestCascadeReusesWarmState(t *testing.T) {
	tr := gen.MustGenerateTrace(gen.ChurnConfig{
		Base:      gen.Config{Family: gen.Uniform, Seed: 21, N: 2000, M: 10, Bands: 10, Tightness: 4, ProfitSpread: 0.4},
		Steps:     3,
		Rate:      0.01,
		Localized: true,
		// PocketFrac 0.1 spans ~1 of 10 equal-area bands.
	})
	s, err := New(context.Background(), tr.Instance, Options{Core: core.Options{SkipBound: true}})
	if err != nil {
		t.Fatal(err)
	}
	for k, d := range tr.Deltas {
		if _, err := s.Apply(context.Background(), d); err != nil {
			t.Fatalf("delta %d: %v", k, err)
		}
	}
	st := s.Stats()
	if st.Deltas != 3 || st.Solves != 4 {
		t.Fatalf("stats %+v, want 3 deltas / 4 solves", st)
	}
	if st.SweepsKept == 0 {
		t.Errorf("no sweep survived any rebase: %+v", st)
	}
	if st.StepsReused == 0 {
		t.Errorf("no greedy step was ever replayed: %+v", st)
	}
	if st.SweepsKept < st.SweepsDropped {
		t.Errorf("localized churn dropped more sweeps (%d) than it kept (%d)", st.SweepsDropped, st.SweepsKept)
	}
}

// TestSessionRecoversAfterFailedSolve: a cancelled re-solve leaves the
// session on the new instance with the trace dropped; the next Apply must
// still produce the bit-exact from-scratch answer.
func TestSessionRecoversAfterFailedSolve(t *testing.T) {
	tr := gen.MustGenerateTrace(gen.ChurnConfig{
		Base:  gen.Config{Family: gen.Uniform, Seed: 5, N: 80, M: 4, Bands: 2, Tightness: 2},
		Steps: 2, Rate: 0.05,
	})
	s, err := New(context.Background(), tr.Instance, Options{Core: core.Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Apply(cancelled, tr.Deltas[0]); err == nil {
		t.Fatal("cancelled Apply should fail")
	}
	// The delta itself was applied; the solve wasn't. The next Apply picks
	// up from the advanced instance.
	sol, err := s.Apply(context.Background(), tr.Deltas[1])
	if err != nil {
		t.Fatal(err)
	}
	mat, err := tr.Materialize(2)
	if err != nil {
		t.Fatal(err)
	}
	solver, err := core.Get("greedy")
	if err != nil {
		t.Fatal(err)
	}
	want, err := solver(context.Background(), mat, core.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, w := solutionString(sol), solutionString(want); got != w {
		t.Fatalf("post-recovery answer drifted:\n got  %s\n want %s", got, w)
	}
}

// TestSessionRejects: invalid inputs fail fast and leave the session
// usable.
func TestSessionRejects(t *testing.T) {
	in := gen.MustGenerate(gen.Config{Family: gen.Uniform, Seed: 2, N: 20, M: 2, Tightness: 2})
	if _, err := New(context.Background(), nil, Options{}); err == nil {
		t.Error("nil instance accepted")
	}
	if _, err := New(context.Background(), in, Options{Solver: "no-such-solver"}); err == nil {
		t.Error("unknown solver accepted")
	}
	s, err := New(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := solutionString(s.Solution())
	if _, err := s.Apply(context.Background(), model.Delta{Remove: []int{99}}); err == nil {
		t.Error("out-of-range delta accepted")
	}
	if got := solutionString(s.Solution()); got != before {
		t.Error("rejected delta perturbed the session")
	}
	if st := s.Stats(); st.Deltas != 0 {
		t.Errorf("rejected delta counted: %+v", st)
	}
	// Still usable after the rejection.
	if _, err := s.Apply(context.Background(), model.Delta{Remove: []int{0}}); err != nil {
		t.Errorf("session unusable after rejected delta: %v", err)
	}
}

// TestSessionCallerInstanceUntouched: New clones; churning the session must
// never write through to the caller's instance.
func TestSessionCallerInstanceUntouched(t *testing.T) {
	in := gen.MustGenerate(gen.Config{Family: gen.Uniform, Seed: 4, N: 30, M: 2, Tightness: 2})
	before := instanceJSON(t, in)
	s, err := New(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply(context.Background(), model.Delta{Remove: []int{1, 3}}); err != nil {
		t.Fatal(err)
	}
	if got := instanceJSON(t, in); got != before {
		t.Error("session wrote through to the caller's instance")
	}
}
