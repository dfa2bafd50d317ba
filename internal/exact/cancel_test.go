package exact

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"sectorpack/internal/angular"
)

// TestSolveParallelCancelled is the regression test for the hardcoded
// context.Background() bug: Solve's fan-out must abort promptly when the
// caller's context ends, at any worker count, instead of grinding through
// the full orientation-tuple space.
func TestSolveParallelCancelled(t *testing.T) {
	defer angular.SetMaxWorkers(angular.SetMaxWorkers(0))
	in := randInstance(rand.New(rand.NewSource(7)), 12, 2, 0)
	for _, workers := range []int{1, 4} {
		angular.SetMaxWorkers(workers)
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // already cancelled: not a single tuple should be solved
		start := time.Now()
		_, err := Solve(ctx, in, Limits{})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%d workers: err = %v, want context.Canceled", workers, err)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Errorf("%d workers: cancelled solve took %v, want prompt return", workers, elapsed)
		}
	}
}

// TestSolveDeadline exercises the mid-run path: a deadline expiring while
// the tuple enumeration is in flight must surface DeadlineExceeded.
func TestSolveDeadline(t *testing.T) {
	in := randInstance(rand.New(rand.NewSource(8)), 12, 2, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := Solve(ctx, in, Limits{})
	if err == nil {
		// The instance solved inside the deadline; nothing to assert.
		t.Skip("instance solved before the deadline on this machine")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("deadline abort took %v, want prompt return", elapsed)
	}
}
