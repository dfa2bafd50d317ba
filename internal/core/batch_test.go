package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sectorpack/internal/model"
)

// batchInstances builds n copies of the golden sectors instance; each item
// gets its own *Instance so per-item mutation in one slot cannot leak into
// another.
func batchInstances(n int) []*model.Instance {
	ins := make([]*model.Instance, n)
	for i := range ins {
		ins[i] = goldenSectorsInstance()
	}
	return ins
}

// emptySolution is a feasible all-unassigned answer, the cheapest thing a
// test solver can return that passes the VerifySolution gate.
func emptySolution(in *model.Instance, alg string) model.Solution {
	return model.Solution{Assignment: model.NewAssignment(in.N(), in.M()), Algorithm: alg}
}

func TestSolveBatchEmptyAndNilItems(t *testing.T) {
	if got := SolveBatch(context.Background(), nil, SolveGreedy, BatchOptions{}); len(got) != 0 {
		t.Fatalf("empty batch returned %d results", len(got))
	}
	ins := batchInstances(3)
	ins[1] = nil
	results := SolveBatch(context.Background(), ins, SolveGreedy, BatchOptions{Options: Options{Seed: 1}})
	if results[1].Err == nil {
		t.Error("nil item did not error")
	}
	for _, i := range []int{0, 2} {
		if results[i].Err != nil {
			t.Errorf("item %d failed alongside the nil item: %v", i, results[i].Err)
		}
	}
}

// TestSolveBatchIsolatesPanicsAndInvalidOutput: a panicking item and an
// item whose solver returns an infeasible answer land typed errors in their
// own slots; the rest of the batch still solves.
func TestSolveBatchIsolatesPanicsAndInvalidOutput(t *testing.T) {
	ins := batchInstances(4)
	ins[1].Name = "panic"
	ins[2].Name = "invalid"
	solver := func(ctx context.Context, in *model.Instance, opt Options) (model.Solution, error) {
		switch in.Name {
		case "panic":
			panic("batch item boom")
		case "invalid":
			sol := emptySolution(in, "bad")
			sol.Profit = 99 // empty assignment recomputes to 0: infeasible claim
			return sol, nil
		default:
			return SolveGreedy(ctx, in, opt)
		}
	}
	results := SolveBatch(context.Background(), ins, solver, BatchOptions{Options: Options{Seed: 1}, SolverName: "test-batch"})
	var pe *PanicError
	if !errors.As(results[1].Err, &pe) {
		t.Errorf("panicking item returned %v, want *PanicError", results[1].Err)
	}
	var ie *InvalidSolutionError
	if !errors.As(results[2].Err, &ie) {
		t.Errorf("infeasible item returned %v, want *InvalidSolutionError", results[2].Err)
	}
	for _, i := range []int{0, 3} {
		if results[i].Err != nil {
			t.Errorf("healthy item %d failed: %v", i, results[i].Err)
		}
	}
}

func TestSolveBatchItemTimeout(t *testing.T) {
	ins := batchInstances(2)
	park := func(ctx context.Context, in *model.Instance, opt Options) (model.Solution, error) {
		<-ctx.Done()
		return model.Solution{}, ctx.Err()
	}
	start := time.Now()
	results := SolveBatch(context.Background(), ins, park, BatchOptions{ItemTimeout: 30 * time.Millisecond})
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("batch with per-item deadlines took %v", elapsed)
	}
	for i, r := range results {
		if !errors.Is(r.Err, context.DeadlineExceeded) {
			t.Errorf("item %d: err %v, want deadline exceeded", i, r.Err)
		}
	}
}

// TestSolveBatchHedgedDegrades: with Hedged set, a failing primary solver
// degrades each item to the greedy safety net instead of erroring.
func TestSolveBatchHedgedDegrades(t *testing.T) {
	ins := batchInstances(3)
	failing := func(ctx context.Context, in *model.Instance, opt Options) (model.Solution, error) {
		return model.Solution{}, errors.New("primary down")
	}
	results := SolveBatch(context.Background(), ins, failing, BatchOptions{
		Options:    Options{Seed: 1},
		SolverName: "test-failing",
		Hedged:     true,
	})
	for i, r := range results {
		if r.Err != nil {
			t.Errorf("hedged item %d errored: %v", i, r.Err)
			continue
		}
		if !r.Solution.Degraded() || r.Solution.SolverUsed != "greedy" {
			t.Errorf("item %d: degraded=%v solver_used=%q, want greedy fallback",
				i, r.Solution.Degraded(), r.Solution.SolverUsed)
		}
		if err := r.Solution.Assignment.Check(ins[i]); err != nil {
			t.Errorf("item %d fallback infeasible: %v", i, err)
		}
	}
}

// TestSolveBatchCancellation: cancelling the batch ctx fails undispatched
// and in-flight items with the ctx error instead of hanging.
func TestSolveBatchCancellation(t *testing.T) {
	ins := batchInstances(8)
	ctx, cancel := context.WithCancel(context.Background())
	var entered sync.Once
	park := func(ctx context.Context, in *model.Instance, opt Options) (model.Solution, error) {
		entered.Do(cancel) // first item to run kills the batch
		<-ctx.Done()
		return model.Solution{}, ctx.Err()
	}
	results := SolveBatch(ctx, ins, park, BatchOptions{Workers: 2})
	for i, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("item %d: err %v, want context.Canceled", i, r.Err)
		}
	}
}

// TestSolveBatchWorkerBound: no more than Workers items run concurrently.
func TestSolveBatchWorkerBound(t *testing.T) {
	const workers = 2
	ins := batchInstances(9)
	var inFlight, peak atomic.Int64
	solver := func(ctx context.Context, in *model.Instance, opt Options) (model.Solution, error) {
		n := inFlight.Add(1)
		defer inFlight.Add(-1)
		//sectorlint:ignore ctxloop lock-free max update; the CAS retry loop is bounded by contention, not solve work
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
		return emptySolution(in, "counted"), nil
	}
	results := SolveBatch(context.Background(), ins, solver, BatchOptions{Workers: workers})
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
	}
	if got := peak.Load(); got > workers {
		t.Errorf("observed %d concurrent items, want <= %d", got, workers)
	}
}

// TestSolveBatchRecordsElapsed: per-item wall time is reported.
func TestSolveBatchRecordsElapsed(t *testing.T) {
	results := SolveBatch(context.Background(), batchInstances(1), SolveGreedy, BatchOptions{Options: Options{Seed: 1}})
	if results[0].Err != nil {
		t.Fatal(results[0].Err)
	}
	if results[0].Elapsed <= 0 {
		t.Errorf("item elapsed %v, want > 0", results[0].Elapsed)
	}
}
