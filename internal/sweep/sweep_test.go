package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunPreservesOrder(t *testing.T) {
	jobs := make([]Job[int], 100)
	for i := range jobs {
		i := i
		jobs[i] = func(context.Context) (int, error) { return i * i, nil }
	}
	res, err := Run(context.Background(), jobs, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, r := range res {
		if r != i*i {
			t.Fatalf("result %d = %d, want %d", i, r, i*i)
		}
	}
}

func TestRunEmpty(t *testing.T) {
	res, err := Run[int](context.Background(), nil, Options{})
	if err != nil || len(res) != 0 {
		t.Fatalf("empty run: %v, %v", res, err)
	}
}

func TestRunErrorAborts(t *testing.T) {
	boom := errors.New("boom")
	var executed atomic.Int32
	jobs := make([]Job[int], 200)
	for i := range jobs {
		i := i
		jobs[i] = func(ctx context.Context) (int, error) {
			executed.Add(1)
			if i == 3 {
				return 0, boom
			}
			// Simulate work so cancellation has time to take effect.
			select {
			case <-ctx.Done():
			case <-time.After(time.Millisecond):
			}
			return i, nil
		}
	}
	_, err := Run(context.Background(), jobs, Options{Workers: 4})
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	if n := executed.Load(); n == 200 {
		t.Error("cancellation should have skipped some jobs")
	}
}

func TestRunExternalCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := []Job[int]{func(context.Context) (int, error) { return 1, nil }}
	_, err := Run(ctx, jobs, Options{})
	if err == nil {
		t.Fatal("cancelled context must surface as an error")
	}
}

func TestRunWorkerCap(t *testing.T) {
	var inFlight, peak atomic.Int32
	jobs := make([]Job[int], 50)
	for i := range jobs {
		jobs[i] = func(context.Context) (int, error) {
			cur := inFlight.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			inFlight.Add(-1)
			return 0, nil
		}
	}
	if _, err := Run(context.Background(), jobs, Options{Workers: 3}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if p := peak.Load(); p > 3 {
		t.Errorf("peak concurrency %d exceeds worker cap 3", p)
	}
}

func TestMap(t *testing.T) {
	inputs := []int{1, 2, 3, 4}
	out, err := Map(context.Background(), inputs, func(_ context.Context, x int) (string, error) {
		return fmt.Sprintf("v%d", x), nil
	}, Options{})
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	want := []string{"v1", "v2", "v3", "v4"}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out = %v", out)
		}
	}
}

func TestRunFirstErrorWins(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	jobs := []Job[int]{
		func(context.Context) (int, error) { time.Sleep(5 * time.Millisecond); return 0, errA },
		func(context.Context) (int, error) { return 0, errB },
	}
	_, err := Run(context.Background(), jobs, Options{Workers: 2})
	// Lowest job index wins regardless of completion order.
	if !errors.Is(err, errA) {
		t.Fatalf("want errA (lowest index), got %v", err)
	}

	// A lower-index job that only reports the cancellation errB's failure
	// caused does not displace errB.
	jobs[0] = func(ctx context.Context) (int, error) { <-ctx.Done(); return 0, ctx.Err() }
	_, err = Run(context.Background(), jobs, Options{Workers: 2})
	if !errors.Is(err, errB) {
		t.Fatalf("want errB (the failure that cancelled job 0), got %v", err)
	}
}

// goid returns the calling goroutine's ID, parsed from its stack header
// ("goroutine 18 [running]:").
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return strings.Fields(string(buf))[1]
}

// eachState is a worker's state in TestEach; inUse catches two workers
// running bodies on the same state at once.
type eachState struct{ inUse atomic.Bool }

// TestEach is the table for the worker pool every parallel path shares.
// Every row runs the same instrumented body and checks the pool's
// contract: peak concurrency never exceeds the worker count, workers <= 1
// runs every body inline on the caller's goroutine, each worker's state
// is its own, cancelling after k claims runs at most k + workers bodies,
// and the lowest failing index's error wins. Without cancellation or
// failure every index runs exactly once.
func TestEach(t *testing.T) {
	errAt := func(i int) error { return fmt.Errorf("fail %d", i) }
	cases := []struct {
		name        string
		n, workers  int
		sleep       time.Duration
		cancelAfter int                   // cancel ctx inside the body of this many-th claim; 0 = never
		fail        map[int]time.Duration // failing index -> delay before it fails
		wantErr     error
	}{
		{name: "empty", n: 0, workers: 4},
		{name: "inline workers=1", n: 20, workers: 1},
		{name: "inline workers=0", n: 20, workers: 0},
		{name: "single item inline", n: 1, workers: 8},
		{name: "peak <= workers (batch bound)", n: 9, workers: 2, sleep: 5 * time.Millisecond},
		{name: "peak <= workers (sweep cap)", n: 50, workers: 3, sleep: time.Millisecond},
		{name: "more workers than items", n: 3, workers: 16, sleep: time.Millisecond},
		{name: "state never shared", n: 200, workers: 8, sleep: 100 * time.Microsecond},
		{name: "cancel after k claims", n: 200, workers: 4, sleep: time.Millisecond, cancelAfter: 10, wantErr: context.Canceled},
		{name: "cancel inline", n: 50, workers: 1, cancelAfter: 5, wantErr: context.Canceled},
		{name: "lowest index error wins", n: 2, workers: 2,
			fail: map[int]time.Duration{0: 5 * time.Millisecond, 1: 0}, wantErr: errAt(0)},
		{name: "error stops claims", n: 200, workers: 4, sleep: time.Millisecond,
			fail: map[int]time.Duration{3: 0}, wantErr: errAt(3)},
		{name: "inline error", n: 10, workers: 1, fail: map[int]time.Duration{4: 0, 6: 0}, wantErr: errAt(4)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			caller := goid()
			var (
				inFlight, peak, claims, newStates atomic.Int32
				shared, offCaller                 atomic.Bool
				ran                               = make([]atomic.Int32, tc.n)
			)
			err := Each(ctx, tc.n, tc.workers, func() *eachState {
				newStates.Add(1)
				return new(eachState)
			}, func(st *eachState, i int) error {
				if !st.inUse.CompareAndSwap(false, true) {
					shared.Store(true)
				}
				defer st.inUse.Store(false)
				if goid() != caller {
					offCaller.Store(true)
				}
				cur := inFlight.Add(1)
				defer inFlight.Add(-1)
				for p := peak.Load(); cur > p && !peak.CompareAndSwap(p, cur); p = peak.Load() {
				}
				ran[i].Add(1)
				if k := claims.Add(1); tc.cancelAfter > 0 && int(k) == tc.cancelAfter {
					cancel()
				}
				time.Sleep(tc.sleep)
				if d, ok := tc.fail[i]; ok {
					time.Sleep(d)
					return errAt(i)
				}
				return nil
			})

			workers := max(tc.workers, 1)
			if p := peak.Load(); int(p) > workers {
				t.Errorf("peak concurrency %d exceeds %d workers", p, workers)
			}
			if tc.workers <= 1 && offCaller.Load() {
				t.Error("workers <= 1 ran a body off the caller's goroutine")
			}
			if shared.Load() {
				t.Error("two workers ran bodies on the same state at once")
			}
			if got, want := int(newStates.Load()), min(workers, tc.n); tc.n > 0 && got != want {
				t.Errorf("newState called %d times, want once per worker (%d)", got, want)
			}
			if tc.cancelAfter > 0 {
				if got := int(claims.Load()); got > tc.cancelAfter+workers {
					t.Errorf("%d bodies ran after cancelling at claim %d with %d workers", got, tc.cancelAfter, workers)
				}
			}
			switch {
			case tc.wantErr == nil:
				if err != nil {
					t.Fatalf("Each: %v", err)
				}
				for i := range ran {
					if got := ran[i].Load(); got != 1 {
						t.Errorf("index %d ran %d times, want 1", i, got)
					}
				}
			case errors.Is(tc.wantErr, context.Canceled):
				if !errors.Is(err, context.Canceled) {
					t.Errorf("err = %v, want context.Canceled", err)
				}
			default:
				if err == nil || err.Error() != tc.wantErr.Error() {
					t.Errorf("err = %v, want %v", err, tc.wantErr)
				}
				if len(tc.fail) == 1 && int(claims.Load()) == tc.n {
					t.Error("a failure did not stop further claims")
				}
			}
		})
	}
}
