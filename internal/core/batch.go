package core

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"sectorpack/internal/model"
	"sectorpack/internal/sweep"
)

// BatchOptions tunes SolveBatch.
type BatchOptions struct {
	// Options is passed to the solver for every item.
	Options
	// SolverName labels the solver in panic/invalid errors and hedged
	// provenance; empty means "batch".
	SolverName string
	// Workers bounds the worker pool; zero means min(GOMAXPROCS, items).
	Workers int
	// ItemTimeout is the per-item solve deadline, layered under the batch
	// ctx; zero means no per-item deadline.
	ItemTimeout time.Duration
	// Hedged routes each item through SolveHedged: a failing item degrades
	// to the greedy safety net (Solution.Degraded reports true) instead of erroring.
	Hedged bool
}

func (o BatchOptions) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (o BatchOptions) solverName() string {
	if o.SolverName == "" {
		return "batch"
	}
	return o.SolverName
}

// BatchResult is one item's outcome: a verified solution or a typed error
// (*PanicError, *InvalidSolutionError, a context error, or a plain solver
// error), never both.
type BatchResult struct {
	Solution model.Solution
	Err      error
	Elapsed  time.Duration
}

// SolveBatch solves every instance concurrently on a bounded worker pool
// (sweep.Each) and returns per-item results aligned with the input. The
// batch never fails as a whole: a panicking, erroring, invalid, or
// timed-out item produces an error (or, with Hedged, a degraded solution)
// in its own slot while the rest proceed. Each item runs under SafeSolve and behind the
// VerifySolution gate exactly like the serving layer's single solves, so
// an uncancelled, non-hedged item is bit-identical to calling the solver
// directly.
//
// Cancelling ctx stops the batch: items not yet started (and items whose
// solver honors cancellation) report ctx's error.
func SolveBatch(ctx context.Context, ins []*model.Instance, solver Solver, opt BatchOptions) []BatchResult {
	results := make([]BatchResult, len(ins))
	name := opt.solverName()
	started := make([]bool, len(ins))
	err := sweep.Each(ctx, len(ins), opt.workers(), sweep.NoState, func(_ struct{}, i int) error {
		started[i] = true
		start := time.Now()
		sol, err := solveBatchItem(ctx, ins[i], solver, name, opt)
		results[i] = BatchResult{Solution: sol, Err: err, Elapsed: time.Since(start)}
		return nil
	})
	for i := range results {
		if !started[i] {
			results[i].Err = err // cancelled before the item was claimed
		}
	}
	return results
}

// solveBatchItem runs one item under its per-item deadline.
func solveBatchItem(ctx context.Context, in *model.Instance, solver Solver, name string, opt BatchOptions) (model.Solution, error) {
	if in == nil {
		return model.Solution{}, fmt.Errorf("core: batch item has nil instance")
	}
	if opt.ItemTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.ItemTimeout)
		defer cancel()
	}
	if opt.Hedged {
		return SolveHedged(ctx, in, solver, HedgeOptions{Options: opt.Options, PrimaryName: name})
	}
	sol, err := SafeSolve(ctx, in, opt.Options, solver, name)
	if err != nil {
		return model.Solution{}, err
	}
	if err := VerifySolution(name, in, sol); err != nil {
		return model.Solution{}, err
	}
	return sol, nil
}
