package session

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
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
// churn — the regime the incremental path is built for. "greedy-disjoint"
// is the greedy solver on a DisjointAngles trace, where the session's
// greedy never replays a step.
func churnCase(name string) gen.ChurnConfig {
	switch name {
	case "greedy-disjoint":
		return gen.ChurnConfig{
			Base:  gen.Config{Family: gen.Uniform, Seed: 17, N: 60, M: 4, Tightness: 2, Variant: model.DisjointAngles},
			Steps: 5, Rate: 0.05, Localized: true, CapacityEvery: 2,
		}
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
// Each input is a registry solver on its churnCase trace, plus greedy on a
// DisjointAngles trace.
func TestDifferentialChurnAllSolvers(t *testing.T) {
	type input struct{ name, solver string }
	var inputs []input
	for _, name := range core.Names() {
		if strings.HasPrefix(name, "test-") {
			continue // solvers injected by other tests in this package tree
		}
		inputs = append(inputs, input{name, name})
	}
	inputs = append(inputs, input{"greedy-disjoint", "greedy"})
	for _, in := range inputs {
		name := in.solver
		t.Run(in.name, func(t *testing.T) {
			tr := gen.MustGenerateTrace(churnCase(in.name))
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

// TestCascadeReuseCountersPinned pins the exact per-delta reuse counters on
// a fixed localized-churn trace. TestCascadeReusesWarmState only asks for
// reuse to happen; this catches a change that replays fewer (or more) steps
// or keeps fewer sweeps while still answering correctly.
func TestCascadeReuseCountersPinned(t *testing.T) {
	tr := gen.MustGenerateTrace(gen.ChurnConfig{
		Base:          gen.Config{Family: gen.Uniform, Seed: 21, N: 2000, M: 10, Bands: 10, Tightness: 4, ProfitSpread: 0.4},
		Steps:         6,
		Rate:          0.01,
		Localized:     true,
		CapacityEvery: 3,
	})
	// Per delta: steps reused, steps resolved, sweeps kept, sweeps dropped.
	// Deltas 0 and 3 also change an antenna capacity.
	want := [][4]int64{
		{4, 6, 8, 2},
		{8, 2, 8, 2},
		{8, 2, 8, 2},
		{0, 10, 8, 2},
		{8, 2, 8, 2},
		{8, 2, 8, 2},
	}
	s, err := New(context.Background(), tr.Instance, Options{Core: core.Options{SkipBound: true}})
	if err != nil {
		t.Fatal(err)
	}
	prev := s.Stats()
	for k, d := range tr.Deltas {
		if _, err := s.Apply(context.Background(), d); err != nil {
			t.Fatalf("delta %d: %v", k, err)
		}
		st := s.Stats()
		got := [4]int64{st.StepsReused - prev.StepsReused, st.StepsResolved - prev.StepsResolved,
			st.SweepsKept - prev.SweepsKept, st.SweepsDropped - prev.SweepsDropped}
		if k < len(want) && got != want[k] {
			t.Errorf("delta %d: reused/resolved/kept/dropped = %v, want %v", k, got, want[k])
		}
		prev = st
	}
	if len(want) != len(tr.Deltas) {
		t.Errorf("pinned %d deltas, trace has %d", len(want), len(tr.Deltas))
	}
}

// TestCascadeNestedRangesDifferential: antennas with nested radial ranges
// and churn only in the outer ring. The outer antennas' sweeps drop and
// their steps re-solve; the inner antennas' sweeps survive, and a customer
// the outer steps now serve differently may be eligible for them. Those
// inner steps must re-solve too (the dirty set), or the answer drifts from
// a from-scratch solve. Banded traces never reach this case: a delta
// drops every sweep of the band it touches.
func TestCascadeNestedRangesDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	customer := func(rmin, rmax float64) model.Customer {
		d := 1 + rng.Int63n(9)
		return model.Customer{Theta: rng.Float64() * 6.28, R: rmin + rng.Float64()*(rmax-rmin), Demand: d, Profit: d + rng.Int63n(5)}
	}
	in := &model.Instance{Variant: model.Sectors}
	for i := 0; i < 120; i++ {
		in.Customers = append(in.Customers, customer(0, 10))
	}
	for j, r := range []float64{10, 10, 6, 6, 4, 4} {
		in.Antennas = append(in.Antennas, model.Antenna{Rho: 1.2, Range: r, Capacity: int64(60 - 5*j)})
	}
	in.Normalize()
	opt := core.Options{SkipBound: true}
	s, err := New(context.Background(), in, Options{Core: opt})
	if err != nil {
		t.Fatal(err)
	}
	cur := in
	for k := 0; k < 5; k++ {
		var d model.Delta // three customers leave the outer ring, three arrive
		for i, c := range cur.Customers {
			if c.R > 9 && len(d.Remove) < 3 {
				d.Remove = append(d.Remove, i)
			}
		}
		for a := 0; a < 3; a++ {
			d.Add = append(d.Add, customer(9.2, 10))
		}
		sol, err := s.Apply(context.Background(), d)
		if err != nil {
			t.Fatalf("delta %d: %v", k, err)
		}
		if cur, err = model.ApplyDelta(cur, d); err != nil {
			t.Fatal(err)
		}
		want, err := core.SolveGreedy(context.Background(), cur, opt)
		if err != nil {
			t.Fatal(err)
		}
		if got, w := solutionString(sol), solutionString(want); got != w {
			t.Fatalf("delta %d drifted from from-scratch:\n got  %s\n want %s", k, got, w)
		}
	}
	if st := s.Stats(); st.StepsReused == 0 || st.SweepsKept == 0 {
		t.Errorf("no inner sweep or step survived: %+v", st)
	}
}

// TestDisjointGreedySessionCountsSteps: a DisjointAngles greedy session
// replays no step (every step is coupled to the sectors placed before it),
// so every step of every solve is searched and counted as resolved. The
// churn trace drops every sweep (DisjointAngles antennas are unbounded), so
// an empty and a capacity-only delta follow it: they keep every sweep, the
// case in which only the variant stops a replay.
func TestDisjointGreedySessionCountsSteps(t *testing.T) {
	cfg := churnCase("greedy-disjoint")
	tr := gen.MustGenerateTrace(cfg)
	s, err := New(context.Background(), tr.Instance, Options{})
	if err != nil {
		t.Fatal(err)
	}
	deltas := append(tr.Deltas, model.Delta{},
		model.Delta{SetCapacity: []model.CapacityChange{{Antenna: 1, Capacity: 1}}})
	for k, d := range deltas {
		if _, err := s.Apply(context.Background(), d); err != nil {
			t.Fatalf("delta %d: %v", k, err)
		}
	}
	st := s.Stats()
	m := int64(cfg.Base.M)
	if st.StepsReused != 0 || st.StepsResolved != st.Solves*m {
		t.Errorf("stats %+v, want 0 reused and %d resolved (%d solves × %d antennas)",
			st, st.Solves*m, st.Solves, m)
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
