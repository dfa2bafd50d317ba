package core

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"sectorpack/internal/angular"
	"sectorpack/internal/model"
)

// tripCtx is a context whose Err starts failing after a fixed number of
// consults. It makes "the solver checks ctx at iteration boundaries"
// testable deterministically: a solver that only consulted ctx once at the
// top would survive the budget and run to completion, returning a solution
// instead of context.Canceled.
type tripCtx struct {
	remaining atomic.Int64
}

func newTripCtx(budget int64) *tripCtx {
	c := &tripCtx{}
	c.remaining.Store(budget)
	return c
}

func (c *tripCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *tripCtx) Done() <-chan struct{}       { return nil }
func (c *tripCtx) Value(key any) any           { return nil }
func (c *tripCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestSolversConsultContextMidLoop pins the sectorlint ctxloop fix: the
// solvers below used to consult ctx at most a handful of times up front,
// so a context cancelled mid-enumeration could not interrupt their
// instance-sized loops. With per-iteration checks in place, a small consult
// budget must always trip inside the loops on a 30-customer instance.
func TestSolversConsultContextMidLoop(t *testing.T) {
	cases := []struct {
		name    string
		variant model.Variant
		run     func(ctx context.Context, in *model.Instance) error
	}{
		{"baseline", model.Sectors, func(ctx context.Context, in *model.Instance) error {
			_, err := SolveBaseline(ctx, in, Options{SkipBound: true, Seed: 1})
			return err
		}},
		{"splittable-exact", model.Sectors, func(ctx context.Context, in *model.Instance) error {
			_, err := SolveSplittableExact(ctx, in)
			return err
		}},
		{"disjoint-dp", model.DisjointAngles, func(ctx context.Context, in *model.Instance) error {
			solver, err := Get("disjoint-dp")
			if err != nil {
				return err
			}
			_, err = solver(ctx, in, Options{SkipBound: true, Seed: 1})
			return err
		}},
		// Three antennas: one consult per antenna would survive the budget.
		{"upper-bound", model.Sectors, func(ctx context.Context, in *model.Instance) error {
			_, err := UpperBoundContext(ctx, angular.NewEngine(in))
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := randInstance(rand.New(rand.NewSource(6)), 30, 3, tc.variant)
			if err := tc.run(newTripCtx(5), in); !errors.Is(err, context.Canceled) {
				t.Errorf("budget of 5 ctx consults on a 30-customer instance must trip mid-loop; err = %v", err)
			}
			// A generous budget must leave the solve unaffected.
			if err := tc.run(newTripCtx(1_000_000), in); err != nil {
				t.Errorf("generous budget must not interfere: %v", err)
			}
		})
	}
}
