package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"sectorpack/internal/model"
)

// FallbackReason values recorded in model.Solution.FallbackReason by
// SolveHedged when the primary solver fails and the fallback answers.
const (
	// FallbackDeadline: the primary ran out of time (context deadline or
	// cancellation).
	FallbackDeadline = "deadline"
	// FallbackPanic: the primary panicked (see *PanicError).
	FallbackPanic = "panic"
	// FallbackInvalid: the primary returned an assignment rejected by the
	// post-solve VerifySolution gate.
	FallbackInvalid = "invalid"
	// FallbackError: the primary returned any other error.
	FallbackError = "error"
)

// fallbackGrace bounds how long SolveHedged waits for a still-running
// fallback leg after the primary has failed. It matters only when the
// fallback is slower than the primary's failure — the common case is the
// fallback finishing long before.
const fallbackGrace = time.Second

// HedgeOptions tunes SolveHedged.
type HedgeOptions struct {
	// Options is passed to both the primary and the fallback solver.
	Options
	// PrimaryName labels the primary solver in provenance and errors.
	PrimaryName string
	// Fallback is the safety-net solver; nil means SolveGreedy, the
	// microsecond-scale workhorse at the bottom of the quality ladder.
	Fallback Solver
	// FallbackName labels the fallback; empty means "greedy" when Fallback
	// is nil, "fallback" otherwise.
	FallbackName string
}

func (h HedgeOptions) fallback() (Solver, string) {
	s, name := h.Fallback, h.FallbackName
	if s == nil {
		s = SolveGreedy
		if name == "" {
			name = "greedy"
		}
	}
	if name == "" {
		name = "fallback"
	}
	return s, name
}

// hedgeResult carries one leg's outcome across its goroutine boundary.
type hedgeResult struct {
	sol model.Solution
	err error
}

// SolveHedged races the primary solver against a fallback safety net and
// degrades instead of failing: when the primary times out, errors,
// panics, or returns an invalid assignment, the fallback's solution is
// returned annotated with SolverUsed/FallbackReason provenance (which
// makes Solution.Degraded report true).
//
// Both legs run under SafeSolve (panics become errors) and behind the
// VerifySolution gate (invalid output is a failure, never an answer). The
// fallback leg is detached from ctx's cancellation — a primary deadline
// must not kill the safety net — but is cancelled as soon as SolveHedged
// returns, and its wait after a primary failure is bounded by
// fallbackGrace.
//
// When the primary succeeds, its solution is returned with only SolverUsed
// stamped: value and assignment are bit-identical to calling the primary
// directly. When both legs fail, the joined errors are returned, so
// errors.Is(err, context.DeadlineExceeded) still detects a timed-out solve.
func SolveHedged(ctx context.Context, in *model.Instance, primary Solver, hopt HedgeOptions) (model.Solution, error) {
	if err := validateForSolve(in); err != nil {
		return model.Solution{}, err
	}
	fallback, fallbackName := hopt.fallback()
	primaryName := hopt.PrimaryName
	if primaryName == "" {
		primaryName = "primary"
	}

	// The fallback leg survives ctx's deadline (that is its whole point)
	// but dies with SolveHedged: fcancel fires on every return path.
	fctx, fcancel := context.WithCancel(context.WithoutCancel(ctx))
	defer fcancel()
	fallbackCh := make(chan hedgeResult, 1)
	go func() {
		sol, err := SafeSolve(fctx, in, hopt.Options, fallback, fallbackName)
		if err == nil {
			err = VerifySolution(fallbackName, in, sol)
		}
		fallbackCh <- hedgeResult{sol, err}
	}()

	primaryCh := make(chan hedgeResult, 1)
	go func() {
		sol, err := SafeSolve(ctx, in, hopt.Options, primary, primaryName)
		if err == nil {
			err = VerifySolution(primaryName, in, sol)
		}
		primaryCh <- hedgeResult{sol, err}
	}()

	var pres hedgeResult
	select {
	case pres = <-primaryCh:
	case <-ctx.Done():
		// A hung primary may never notice the cancellation; do not wait
		// for it. Its goroutine parks on the buffered channel and is
		// collected whenever it eventually returns.
		pres = hedgeResult{err: ctx.Err()}
	}
	if pres.err == nil {
		sol := pres.sol
		sol.SolverUsed = primaryName
		return sol, nil
	}
	reason := ClassifyFailure(pres.err)

	// Primary failed: collect the fallback. If it was already done the
	// hedge "won" — the degraded answer is ready at the deadline with no
	// added latency. Otherwise wait out the grace, then cancel it and give
	// it one more grace period to unwind (every well-behaved solver
	// returns promptly on cancellation).
	fres, win := awaitFallback(fallbackCh, fcancel, fallbackGrace)
	if fres.err != nil {
		return model.Solution{}, errors.Join(
			fmt.Errorf("hedged solve: primary %q failed: %w", primaryName, pres.err),
			fmt.Errorf("fallback %q failed: %w", fallbackName, fres.err),
		)
	}
	sol := fres.sol
	sol.SolverUsed = fallbackName
	sol.FallbackReason = reason
	sol.FallbackDetail = pres.err.Error()
	sol.HedgeWin = win
	return sol, nil
}

// awaitFallback collects the fallback leg's result after a primary
// failure. The returned bool reports a hedge win: the fallback had already
// finished when the primary failed.
func awaitFallback(ch <-chan hedgeResult, cancel context.CancelFunc, grace time.Duration) (hedgeResult, bool) {
	select {
	case res := <-ch:
		return res, true
	default:
	}
	timer := time.NewTimer(grace)
	defer timer.Stop()
	select {
	case res := <-ch:
		return res, false
	case <-timer.C:
	}
	cancel()
	timer.Reset(grace)
	select {
	case res := <-ch:
		return res, false
	case <-timer.C:
		return hedgeResult{err: fmt.Errorf("fallback did not return within %v of cancellation", grace)}, false
	}
}

// ClassifyFailure maps a failed solve's error to its FallbackReason,
// checking panic, then cancellation, then an invalid solution.
func ClassifyFailure(err error) string {
	var pe *PanicError
	var ie *InvalidSolutionError
	switch {
	case errors.As(err, &pe):
		return FallbackPanic
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		return FallbackDeadline
	case errors.As(err, &ie):
		return FallbackInvalid
	default:
		return FallbackError
	}
}
