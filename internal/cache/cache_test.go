package cache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sectorpack/internal/core"
	"sectorpack/internal/gen"
	"sectorpack/internal/model"
)

// solutionString renders a solution at full precision, the same shape as
// internal/core's determinism goldens: any drift in profit, algorithm,
// orientations, or owners shows up as a string diff.
func solutionString(sol model.Solution) string {
	return fmt.Sprintf("profit=%d alg=%s degraded=%v orient=%v owner=%v",
		sol.Profit, sol.Algorithm, sol.Degraded(),
		fmt.Sprintf("%.17g", sol.Assignment.Orientation), sol.Assignment.Owner)
}

func mustFingerprint(t testing.TB, in *model.Instance, opt core.Options, solver string) *Fingerprint {
	t.Helper()
	fp, err := NewFingerprint(in, opt, solver)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

func greedySolve(t testing.TB, in *model.Instance, opt core.Options) model.Solution {
	t.Helper()
	solver, err := core.Get("greedy")
	if err != nil {
		t.Fatal(err)
	}
	sol, err := solver(context.Background(), in, opt)
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

func TestCachePutGetBitIdentical(t *testing.T) {
	in := testInstance(11)
	opt := core.Options{Seed: 1}
	sol := greedySolve(t, in, opt)
	c := New(0)
	fp := mustFingerprint(t, in, opt, "greedy")

	if _, ok := c.Get(fp); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Put(fp, sol)
	got, ok := c.Get(fp)
	if !ok {
		t.Fatal("stored entry missed")
	}
	if solutionString(got) != solutionString(sol) {
		t.Fatalf("cache round trip drifted:\n got  %s\n want %s", solutionString(got), solutionString(sol))
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Stores != 1 {
		t.Fatalf("unexpected stats: %+v", st)
	}
	if st.Bytes <= 0 {
		t.Fatalf("stored entry accounted zero bytes")
	}
}

func TestCacheDegradedSolutionsNotStored(t *testing.T) {
	in := testInstance(11)
	opt := core.Options{Seed: 1}
	sol := greedySolve(t, in, opt)
	sol.FallbackReason = core.FallbackDeadline
	c := New(0)
	fp := mustFingerprint(t, in, opt, "greedy")
	c.Put(fp, sol)
	if _, ok := c.Get(fp); ok {
		t.Fatal("degraded solution was cached")
	}
}

func TestCacheLRUEvictionUnderByteBudget(t *testing.T) {
	opt := core.Options{Seed: 1}
	type stored struct {
		fp  *Fingerprint
		sol model.Solution
	}
	var items []stored
	// Budget for roughly three entries of this shape.
	probe := testInstance(100)
	probeSol := greedySolve(t, probe, opt)
	probeFP := mustFingerprint(t, probe, opt, "greedy")
	budget := 3 * entrySize(probeFP.Key(), probeSol)
	c := New(budget)

	for seed := int64(100); seed < 108; seed++ {
		in := testInstance(seed)
		fp := mustFingerprint(t, in, opt, "greedy")
		sol := greedySolve(t, in, opt)
		c.Put(fp, sol)
		items = append(items, stored{fp, sol})
	}
	st := c.Stats()
	if st.Bytes > budget {
		t.Fatalf("cache over budget: %d > %d", st.Bytes, budget)
	}
	if st.Evictions == 0 {
		t.Fatalf("no evictions after overfilling: %+v", st)
	}
	if st.Entries >= 8 {
		t.Fatalf("all entries retained despite budget: %+v", st)
	}
	// The most recently inserted entry must have survived; the oldest must
	// be gone.
	if _, ok := c.Get(items[len(items)-1].fp); !ok {
		t.Error("most recent entry was evicted")
	}
	if _, ok := c.Get(items[0].fp); ok {
		t.Error("oldest entry survived eviction pressure")
	}
}

func TestCacheDelete(t *testing.T) {
	in := testInstance(12)
	opt := core.Options{Seed: 1}
	c := New(0)
	fp := mustFingerprint(t, in, opt, "greedy")
	c.Put(fp, greedySolve(t, in, opt))
	c.Delete(fp.Key())
	if _, ok := c.Get(fp); ok {
		t.Fatal("deleted entry still served")
	}
	c.Delete(fp.Key()) // deleting a missing key is a no-op
}

func TestGetOrSolveMissThenHit(t *testing.T) {
	in := testInstance(13)
	opt := core.Options{Seed: 1}
	c := New(0)
	fp := mustFingerprint(t, in, opt, "greedy")
	var calls atomic.Int64
	solve := func(ctx context.Context) (model.Solution, error) {
		calls.Add(1)
		return greedySolve(t, in, opt), nil
	}

	first, out, err := c.GetOrSolve(context.Background(), fp, solve)
	if err != nil || out != Miss {
		t.Fatalf("first call: outcome %v err %v", out, err)
	}
	second, out, err := c.GetOrSolve(context.Background(), fp, solve)
	if err != nil || out != Hit {
		t.Fatalf("second call: outcome %v err %v", out, err)
	}
	if calls.Load() != 1 {
		t.Fatalf("solve ran %d times, want 1", calls.Load())
	}
	if solutionString(first) != solutionString(second) {
		t.Fatalf("hit drifted from miss:\n got  %s\n want %s", solutionString(second), solutionString(first))
	}
}

func TestGetOrSolveErrorNotCached(t *testing.T) {
	in := testInstance(14)
	opt := core.Options{Seed: 1}
	c := New(0)
	fp := mustFingerprint(t, in, opt, "greedy")
	boom := errors.New("boom")
	_, out, err := c.GetOrSolve(context.Background(), fp, func(ctx context.Context) (model.Solution, error) {
		return model.Solution{}, boom
	})
	if out != Miss || !errors.Is(err, boom) {
		t.Fatalf("outcome %v err %v", out, err)
	}
	// The failure must not poison the key: the next call solves again.
	sol, out, err := c.GetOrSolve(context.Background(), fp, func(ctx context.Context) (model.Solution, error) {
		return greedySolve(t, in, opt), nil
	})
	if err != nil || out != Miss || sol.Assignment == nil {
		t.Fatalf("retry after error: outcome %v err %v", out, err)
	}
}

// TestGetOrSolveSingleflight: concurrent identical requests collapse onto
// one in-flight solve. The leader is gated on a channel until every
// follower has registered (observed via the collapsed counter), so the
// collapse is deterministic, not a race the test happens to win.
func TestGetOrSolveSingleflight(t *testing.T) {
	const followers = 24
	in := testInstance(15)
	opt := core.Options{Seed: 1}
	c := New(0)
	fp := mustFingerprint(t, in, opt, "greedy")

	release := make(chan struct{})
	var calls atomic.Int64
	solve := func(ctx context.Context) (model.Solution, error) {
		calls.Add(1)
		<-release
		return greedySolve(t, in, opt), nil
	}

	results := make([]string, followers+1)
	var wg sync.WaitGroup
	for i := 0; i <= followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sol, _, err := c.GetOrSolve(context.Background(), fp, solve)
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
				return
			}
			results[i] = solutionString(sol)
		}(i)
	}
	// Wait until every follower is parked on the flight, then release the
	// leader.
	for c.Stats().Collapsed < followers {
		time.Sleep(100 * time.Microsecond)
	}
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("underlying solve ran %d times, want 1", got)
	}
	for i, r := range results {
		if r != results[0] {
			t.Fatalf("goroutine %d got a different solution:\n %s\n vs %s", i, r, results[0])
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Collapsed != followers {
		t.Fatalf("stats %+v, want 1 miss and %d collapsed", st, followers)
	}
}

// TestGetOrSolveFollowerHonorsOwnContext: a follower whose ctx dies while
// the leader is still solving returns its own ctx error promptly.
func TestGetOrSolveFollowerHonorsOwnContext(t *testing.T) {
	in := testInstance(16)
	opt := core.Options{Seed: 1}
	c := New(0)
	fp := mustFingerprint(t, in, opt, "greedy")

	release := make(chan struct{})
	defer close(release)
	leaderIn := make(chan struct{})
	go func() {
		c.GetOrSolve(context.Background(), fp, func(ctx context.Context) (model.Solution, error) {
			close(leaderIn)
			<-release
			return greedySolve(t, in, opt), nil
		})
	}()
	<-leaderIn

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, out, err := c.GetOrSolve(ctx, fp, func(ctx context.Context) (model.Solution, error) {
		t.Error("follower ran its own solve")
		return model.Solution{}, nil
	})
	if out != Collapsed || !errors.Is(err, context.Canceled) {
		t.Fatalf("outcome %v err %v, want Collapsed + context.Canceled", out, err)
	}
}

// TestCacheServesPermutedDuplicate: an instance that is a shuffled copy of
// a cached one hits the same key, and the remapped solution is feasible
// with identical profit, whether the entry packs its owners (m = 3) or
// keeps them wide (m = 256).
func TestCacheServesPermutedDuplicate(t *testing.T) {
	for _, in := range []*model.Instance{
		testInstance(17),
		gen.MustGenerate(gen.Config{Family: gen.Uniform, Seed: 17, N: 24, M: maxPackedAntennas + 1, Variant: model.Sectors}),
	} {
		opt := core.Options{Seed: 1}
		c := New(0)
		fp := mustFingerprint(t, in, opt, "greedy")
		sol := greedySolve(t, in, opt)
		c.Put(fp, sol)
		if packed := storedEntry(t, c, fp.Key()).packed != nil; packed != (in.M() <= maxPackedAntennas) {
			t.Fatalf("m=%d: entry packed=%v", in.M(), packed)
		}

		perm := shuffleCustomers(shuffleAntennas(in, 5), 6)
		fp2 := mustFingerprint(t, perm, opt, "greedy")
		got, ok := c.Get(fp2)
		if !ok {
			t.Fatalf("m=%d: permuted duplicate missed", in.M())
		}
		if err := got.Assignment.Check(perm); err != nil {
			t.Fatalf("m=%d: remapped hit infeasible on the permuted instance: %v", in.M(), err)
		}
		if got.Assignment.Profit(perm) != sol.Profit {
			t.Fatalf("m=%d: remapped profit %d != original %d", in.M(), got.Assignment.Profit(perm), sol.Profit)
		}
	}
}
