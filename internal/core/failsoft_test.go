package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"sectorpack/internal/model"
)

// The misbehaving-solver registry: every way a buggy solver can fail the
// pipeline, as injectable Solver values. The sectord tests drive the same
// shapes through httptest; here they prove the core pipeline in isolation.

// panickingSolver panics mid-solve.
func panickingSolver(context.Context, *model.Instance, Options) (model.Solution, error) {
	panic("injected solver crash")
}

// hangingSolver parks until its context ends (a well-behaved hang).
func hangingSolver(ctx context.Context, in *model.Instance, opt Options) (model.Solution, error) {
	<-ctx.Done()
	return model.Solution{}, ctx.Err()
}

// wedgedSolver ignores its context entirely and never returns until the
// release channel closes — the worst-behaved hang.
func wedgedSolver(release <-chan struct{}) Solver {
	return func(context.Context, *model.Instance, Options) (model.Solution, error) {
		<-release
		return model.Solution{}, errors.New("wedged solver released")
	}
}

// invalidAssignmentSolver claims to serve every customer with antenna 0 at
// orientation 0 — overloading it and leaving most customers uncovered.
func invalidAssignmentSolver(ctx context.Context, in *model.Instance, opt Options) (model.Solution, error) {
	as := model.NewAssignment(in.N(), in.M())
	var profit int64
	for i := range as.Owner {
		as.Owner[i] = 0
		profit += in.Customers[i].Profit
	}
	return model.Solution{Assignment: as, Profit: profit, Algorithm: "invalid"}, nil
}

// wrongProfitSolver returns an empty (feasible) assignment but claims an
// absurd profit for it.
func wrongProfitSolver(ctx context.Context, in *model.Instance, opt Options) (model.Solution, error) {
	return model.Solution{
		Assignment: model.NewAssignment(in.N(), in.M()),
		Profit:     1 << 40,
		Algorithm:  "wrong-profit",
	}, nil
}

// erroringSolver fails with a plain error.
func erroringSolver(context.Context, *model.Instance, Options) (model.Solution, error) {
	return model.Solution{}, errors.New("injected solver error")
}

func hedgeInstance(t *testing.T) *model.Instance {
	t.Helper()
	return randInstance(rand.New(rand.NewSource(99)), 12, 2, model.Sectors)
}

func TestSafeSolveConvertsPanic(t *testing.T) {
	in := hedgeInstance(t)
	sol, err := SafeSolve(context.Background(), in, Options{}, panickingSolver, "boom")
	if err == nil {
		t.Fatal("SafeSolve returned nil error for a panicking solver")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %T %v, want *PanicError", err, err)
	}
	if pe.Solver != "boom" || pe.Value != "injected solver crash" {
		t.Errorf("PanicError{Solver: %q, Value: %v}, want boom / injected solver crash", pe.Solver, pe.Value)
	}
	if !strings.Contains(string(pe.Stack), "panickingSolver") {
		t.Errorf("captured stack does not name the panicking frame:\n%s", pe.Stack)
	}
	if !strings.Contains(pe.Error(), "boom") {
		t.Errorf("Error() = %q, want the solver name in it", pe.Error())
	}
	if sol.Assignment != nil {
		t.Error("panic path returned a non-zero solution")
	}
}

func TestSafeSolvePassthrough(t *testing.T) {
	in := hedgeInstance(t)
	direct, err := SolveGreedy(context.Background(), in, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := SafeSolve(context.Background(), in, Options{Seed: 3}, SolveGreedy, "greedy")
	if err != nil {
		t.Fatal(err)
	}
	assertSameSolution(t, direct, wrapped)
}

func TestRegistryGetIsolatesPanics(t *testing.T) {
	Register("test-core-panic", panickingSolver)
	t.Cleanup(func() { Unregister("test-core-panic") })
	s, err := Get("test-core-panic")
	if err != nil {
		t.Fatal(err)
	}
	_, err = s(context.Background(), hedgeInstance(t), Options{})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("registry-resolved panicking solver returned %T %v, want *PanicError", err, err)
	}
	if pe.Solver != "test-core-panic" {
		t.Errorf("PanicError.Solver = %q, want the registry name", pe.Solver)
	}
}

func TestSolveAutoStaysConsistentUnderSafeSolve(t *testing.T) {
	// SolveAuto's dispatch runs through SafeSolve; panic conversion itself
	// is covered by TestSafeSolveConvertsPanic, so this pins the healthy
	// path: the wrapper must not perturb a normal auto solve.
	in := hedgeInstance(t)
	sol, err := SolveAuto(context.Background(), in, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifySolution("auto", in, sol); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sol.Algorithm, "auto/") {
		t.Errorf("Algorithm = %q, want auto/ prefix", sol.Algorithm)
	}
}

func TestVerifySolutionGate(t *testing.T) {
	in := hedgeInstance(t)
	cases := []struct {
		name   string
		solver Solver
	}{
		{"invalid-assignment", invalidAssignmentSolver},
		{"wrong-profit", wrongProfitSolver},
	}
	for _, tc := range cases {
		sol, err := tc.solver(context.Background(), in, Options{})
		if err != nil {
			t.Fatalf("%s: unexpected solve error %v", tc.name, err)
		}
		err = VerifySolution(tc.name, in, sol)
		var ie *InvalidSolutionError
		if !errors.As(err, &ie) {
			t.Fatalf("%s: gate returned %T %v, want *InvalidSolutionError", tc.name, err, err)
		}
		if ie.Solver != tc.name {
			t.Errorf("%s: gate named solver %q", tc.name, ie.Solver)
		}
	}
	if err := VerifySolution("nil", in, model.Solution{}); err == nil {
		t.Error("gate accepted a solution with no assignment")
	}
	good, err := SolveGreedy(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifySolution("greedy", in, good); err != nil {
		t.Errorf("gate rejected a feasible greedy solution: %v", err)
	}
}

func assertSameSolution(t *testing.T, want, got model.Solution) {
	t.Helper()
	if want.Profit != got.Profit || want.Algorithm != got.Algorithm {
		t.Fatalf("solution differs: profit %d/%d algorithm %q/%q", want.Profit, got.Profit, want.Algorithm, got.Algorithm)
	}
	for j, o := range want.Assignment.Orientation {
		if math.Float64bits(got.Assignment.Orientation[j]) != math.Float64bits(o) {
			t.Fatalf("orientation[%d] = %v, want %v", j, got.Assignment.Orientation[j], o)
		}
	}
	for i, o := range want.Assignment.Owner {
		if got.Assignment.Owner[i] != o {
			t.Fatalf("owner[%d] = %d, want %d", i, got.Assignment.Owner[i], o)
		}
	}
}

func TestSolveHedgedPrimarySuccessBitIdentical(t *testing.T) {
	in := hedgeInstance(t)
	direct, err := SolveLocalSearch(context.Background(), in, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	hedged, err := SolveHedged(context.Background(), in, SolveLocalSearch, HedgeOptions{
		Options:     Options{Seed: 7},
		PrimaryName: "localsearch",
	})
	if err != nil {
		t.Fatal(err)
	}
	if hedged.Degraded() {
		t.Fatal("healthy primary marked Degraded")
	}
	if hedged.SolverUsed != "localsearch" {
		t.Errorf("SolverUsed = %q, want localsearch", hedged.SolverUsed)
	}
	if hedged.FallbackReason != "" || hedged.FallbackDetail != "" {
		t.Errorf("fallback provenance set on a healthy solve: %q %q", hedged.FallbackReason, hedged.FallbackDetail)
	}
	assertSameSolution(t, direct, hedged)
}

// hedgeFailureCase drives SolveHedged with one misbehaving primary and
// asserts the degraded greedy answer plus its provenance.
func hedgeFailureCase(t *testing.T, primary Solver, ctx context.Context, wantReason string) model.Solution {
	t.Helper()
	in := hedgeInstance(t)
	sol, err := SolveHedged(ctx, in, primary, HedgeOptions{
		Options:     Options{Seed: 1},
		PrimaryName: "test-primary",
	})
	if err != nil {
		t.Fatalf("SolveHedged: %v", err)
	}
	if !sol.Degraded() {
		t.Fatal("expected a degraded solution")
	}
	if sol.SolverUsed != "greedy" {
		t.Errorf("SolverUsed = %q, want greedy", sol.SolverUsed)
	}
	if sol.FallbackReason != wantReason {
		t.Errorf("FallbackReason = %q, want %q (detail: %s)", sol.FallbackReason, wantReason, sol.FallbackDetail)
	}
	if sol.FallbackDetail == "" {
		t.Error("FallbackDetail empty")
	}
	if err := VerifySolution("greedy", in, sol); err != nil {
		t.Errorf("degraded solution fails the gate: %v", err)
	}
	return sol
}

func TestSolveHedgedPanicFallsBack(t *testing.T) {
	hedgeFailureCase(t, panickingSolver, context.Background(), FallbackPanic)
}

func TestSolveHedgedErrorFallsBack(t *testing.T) {
	hedgeFailureCase(t, erroringSolver, context.Background(), FallbackError)
}

func TestSolveHedgedInvalidOutputFallsBack(t *testing.T) {
	hedgeFailureCase(t, invalidAssignmentSolver, context.Background(), FallbackInvalid)
	hedgeFailureCase(t, wrongProfitSolver, context.Background(), FallbackInvalid)
}

func TestSolveHedgedDeadlineFallsBack(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	sol := hedgeFailureCase(t, hangingSolver, ctx, FallbackDeadline)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("degraded answer took %v, want promptly after the 50ms deadline", elapsed)
	}
	// Greedy on this tiny instance finishes in microseconds, long before
	// the 50ms deadline: the hedge should have won.
	if !sol.HedgeWin {
		t.Error("fallback finished before the deadline but HedgeWin is false")
	}
}

func TestSolveHedgedWedgedPrimaryDoesNotBlock(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	// The wedged solver never observes ctx; SolveHedged must still answer.
	hedgeFailureCase(t, wedgedSolver(release), ctx, FallbackDeadline)
}

func TestSolveHedgedBothLegsFail(t *testing.T) {
	in := hedgeInstance(t)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := SolveHedged(ctx, in, hangingSolver, HedgeOptions{
		PrimaryName:  "test-hang",
		Fallback:     erroringSolver,
		FallbackName: "test-error",
	})
	if err == nil {
		t.Fatal("expected an error when both legs fail")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("joined error %v does not surface context.DeadlineExceeded", err)
	}
	for _, frag := range []string{"test-hang", "test-error"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q does not name %s", err, frag)
		}
	}
}

func TestSolveHedgedCustomFallback(t *testing.T) {
	in := hedgeInstance(t)
	sol, err := SolveHedged(context.Background(), in, panickingSolver, HedgeOptions{
		PrimaryName:  "test-panic",
		Fallback:     SolveBaseline,
		FallbackName: "baseline",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Degraded() || sol.SolverUsed != "baseline" {
		t.Errorf("Degraded=%v SolverUsed=%q, want degraded baseline", sol.Degraded(), sol.SolverUsed)
	}
	if sol.Algorithm != "baseline" {
		t.Errorf("Algorithm = %q, want baseline", sol.Algorithm)
	}
}

func TestSolveHedgedInvalidInstance(t *testing.T) {
	in := &model.Instance{Customers: []model.Customer{{ID: 0, Theta: -3, R: 1, Demand: 1}}}
	_, err := SolveHedged(context.Background(), in, SolveGreedy, HedgeOptions{PrimaryName: "greedy"})
	if err == nil {
		t.Fatal("SolveHedged accepted an invalid instance")
	}
}

// TestSolveHedgedFallbackDetachedFromDeadline pins the core design point:
// the fallback leg must keep running after ctx's deadline has fired, or a
// deadline would kill both legs and the hedge could never degrade.
func TestSolveHedgedFallbackDetachedFromDeadline(t *testing.T) {
	in := hedgeInstance(t)
	// A fallback that reports which context family it observed.
	sawLiveCtx := make(chan bool, 1)
	slowFallback := func(ctx context.Context, in *model.Instance, opt Options) (model.Solution, error) {
		// By now the 30ms request deadline has long fired; a fallback
		// chained to it would be dead already.
		time.Sleep(80 * time.Millisecond)
		select {
		case sawLiveCtx <- ctx.Err() == nil:
		default:
		}
		return SolveGreedy(ctx, in, opt)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	sol, err := SolveHedged(ctx, in, hangingSolver, HedgeOptions{
		PrimaryName:  "test-hang",
		Fallback:     slowFallback,
		FallbackName: "slow-greedy",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Degraded() || sol.HedgeWin {
		t.Errorf("Degraded=%v HedgeWin=%v, want degraded non-win (fallback outlived the deadline)", sol.Degraded(), sol.HedgeWin)
	}
	if live := <-sawLiveCtx; !live {
		t.Error("fallback context was dead after the request deadline; the leg is not detached")
	}
}
