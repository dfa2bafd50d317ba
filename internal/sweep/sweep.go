// Package sweep holds the repository's one worker pool, Each, and the
// experiment runner built on it. Each fans a body out over the indices of
// a work list on a bounded set of goroutines; the columnar engine's
// Prewarm and best-window evaluation, core.SolveBatch and Run all use it.
// Run drains a queue of deterministic jobs and collects results in
// submission order, so experiment tables are reproducible regardless of
// scheduling.
// Cancellation flows through a context; the first job error aborts the
// sweep.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Each calls body(state, i) for every index i in [0, n) on up to workers
// goroutines and waits for them all.
//
// Workers claim indices one at a time from an atomic counter, in
// ascending order, and consult ctx before every claim: once ctx ends no
// new index starts, so cancelling after k claims runs at most k + workers
// bodies. With workers <= 1 (or n <= 1) the loop runs inline on the
// caller's goroutine and starts no goroutine at all.
//
// newState is called once per worker, on the caller's goroutine before
// that worker starts; the worker passes the result to every body it runs,
// so per-worker scratch (buffers, pooled workspaces) is never shared.
//
// A body error stops further claims (bodies already running finish) and
// Each returns the error of the lowest failing index. Otherwise it
// returns ctx.Err() as of its return: nil unless ctx ended, in which case
// some indices may never have run.
func Each[S any](ctx context.Context, n, workers int, newState func() S, body func(S, int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if n <= 0 {
			return ctx.Err()
		}
		st := newState()
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := body(st, i); err != nil {
				return err
			}
		}
		return ctx.Err()
	}
	p := &pool{}
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		st := newState()
		go func() {
			defer p.wg.Done()
			for {
				if ctx.Err() != nil || p.failed.Load() {
					return // consult ctx once per claimed index
				}
				i := int(p.next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := body(st, i); err != nil {
					p.fail(i, err)
				}
			}
		}()
	}
	p.wg.Wait() // orders every fail before the read of p.err
	if p.err != nil {
		return p.err
	}
	return ctx.Err()
}

// pool is the shared state of one parallel Each. errIdx and err are
// written under mu and read once every worker has exited.
type pool struct {
	wg     sync.WaitGroup
	next   atomic.Int64
	failed atomic.Bool

	mu     sync.Mutex
	errIdx int
	err    error
}

// fail records the error of index i, keeping the lowest failing index.
func (p *pool) fail(i int, err error) {
	p.mu.Lock()
	if p.err == nil || i < p.errIdx {
		p.errIdx, p.err = i, err
	}
	p.mu.Unlock()
	p.failed.Store(true)
}

// NoState is the newState of an Each whose workers need no state.
func NoState() struct{} { return struct{}{} }

// Job is one unit of work; Run must be safe to call concurrently with
// other jobs' Run (jobs share nothing mutable).
type Job[T any] func(ctx context.Context) (T, error)

// Options tunes Run.
type Options struct {
	// Workers is the pool size; zero means GOMAXPROCS.
	Workers int
}

// Run executes the jobs on Each and returns their results in the order
// the jobs were given. The first error cancels the remaining jobs and is
// returned (wrapped with its job index); a job that merely reports the
// cancellation that failure caused does not displace it, even from a
// lower index.
func Run[T any](ctx context.Context, jobs []Job[T], opt Options) ([]T, error) {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	results := make([]T, len(jobs))
	if len(jobs) == 0 {
		return results, nil
	}
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	err := Each(ctx, len(jobs), workers, NoState, func(_ struct{}, idx int) error {
		res, err := jobs[idx](ctx)
		if err == nil {
			results[idx] = res
			return nil
		}
		if errors.Is(err, context.Canceled) && ctx.Err() != nil && parent.Err() == nil {
			return nil // aborted by another job's failure, which is reported
		}
		cancel()
		return fmt.Errorf("sweep: job %d: %w", idx, err)
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// Map is a convenience wrapper: it applies f to every input in parallel.
func Map[In, Out any](ctx context.Context, inputs []In, f func(context.Context, In) (Out, error), opt Options) ([]Out, error) {
	jobs := make([]Job[Out], len(inputs))
	for i := range inputs {
		in := inputs[i]
		jobs[i] = func(ctx context.Context) (Out, error) { return f(ctx, in) }
	}
	return Run(ctx, jobs, opt)
}
