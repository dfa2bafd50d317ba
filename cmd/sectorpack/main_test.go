package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sectorpack/internal/core"
	"sectorpack/internal/gen"
	"sectorpack/internal/model"
)

func writeTestInstance(t *testing.T) string {
	t.Helper()
	in := gen.MustGenerate(gen.Config{
		Family: gen.Hotspot, Variant: model.Sectors, Seed: 7, N: 25, M: 2,
	})
	path := filepath.Join(t.TempDir(), "inst.json")
	if err := model.SaveFile(path, in); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunSolvesInstance(t *testing.T) {
	path := writeTestInstance(t)
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-in", path, "-solver", "localsearch", "-v"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"instance", "localsearch", "served", "antenna  0"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunBoundFlag(t *testing.T) {
	path := writeTestInstance(t)
	var withBound, without bytes.Buffer
	if err := run(context.Background(), []string{"-in", path, "-solver", "baseline"}, &withBound); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := run(context.Background(), []string{"-in", path, "-solver", "baseline", "-bound=false"}, &without); err != nil {
		t.Fatalf("run -bound=false: %v", err)
	}
	if !strings.Contains(withBound.String(), "of bound") {
		t.Errorf("default run missing the bound report:\n%s", withBound.String())
	}
	if strings.Contains(without.String(), "of bound") {
		t.Errorf("-bound=false still reports a bound:\n%s", without.String())
	}
}

func TestRunViz(t *testing.T) {
	path := writeTestInstance(t)
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-in", path, "-viz"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "B") || !strings.Contains(out.String(), "[0]") {
		t.Errorf("viz output missing plot or legend:\n%s", out.String())
	}
}

func TestRunEpsForcesFPTAS(t *testing.T) {
	path := writeTestInstance(t)
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-in", path, "-eps", "0.2"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "greedy") {
		t.Errorf("output missing solver name:\n%s", out.String())
	}
}

func TestRunTimeoutFallbackDegrades(t *testing.T) {
	core.Register("test-cli-hang", func(ctx context.Context, in *model.Instance, opt core.Options) (model.Solution, error) {
		<-ctx.Done()
		return model.Solution{}, ctx.Err()
	})
	path := writeTestInstance(t)
	var out bytes.Buffer
	err := run(context.Background(), []string{"-in", path, "-solver", "test-cli-hang", "-timeout", "50ms"}, &out)
	if err == nil {
		t.Fatal("degraded run must return the degraded sentinel error")
	}
	var de *degradedError
	if !errors.As(err, &de) {
		t.Fatalf("error %T %v, want *degradedError (exit code %d)", err, err, exitDegraded)
	}
	if de.solverUsed != "greedy" {
		t.Errorf("degraded error names fallback %q, want greedy", de.solverUsed)
	}
	if !strings.Contains(err.Error(), "greedy") {
		t.Errorf("stderr note %q does not name the fallback solver", err)
	}
	// The degraded solution is still printed in full.
	for _, want := range []string{"solution", "degraded", "greedy", "served"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("degraded output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunTimeoutNoFallbackErrorsHard(t *testing.T) {
	core.Register("test-cli-hang2", func(ctx context.Context, in *model.Instance, opt core.Options) (model.Solution, error) {
		<-ctx.Done()
		return model.Solution{}, ctx.Err()
	})
	path := writeTestInstance(t)
	var out bytes.Buffer
	err := run(context.Background(), []string{"-in", path, "-solver", "test-cli-hang2", "-timeout", "50ms", "-fallback=false"}, &out)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v, want context.DeadlineExceeded with -fallback=false", err)
	}
	var de *degradedError
	if errors.As(err, &de) {
		t.Error("hard-timeout error must not be the degraded sentinel")
	}
}

func TestRunTimeoutFastSolverStaysFull(t *testing.T) {
	path := writeTestInstance(t)
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-in", path, "-solver", "greedy", "-timeout", "30s"}, &out); err != nil {
		t.Fatalf("fast solve under a generous -timeout must exit clean: %v", err)
	}
	if strings.Contains(out.String(), "degraded") {
		t.Errorf("healthy solve printed a degraded note:\n%s", out.String())
	}
}

// TestRunRejectsWrongProfit: a feasible assignment whose reported profit
// is not what it serves is a solver bug, never a printed report.
func TestRunRejectsWrongProfit(t *testing.T) {
	core.Register("test-cli-wrong-profit", func(ctx context.Context, in *model.Instance, opt core.Options) (model.Solution, error) {
		return model.Solution{Algorithm: "wrong-profit", Assignment: model.NewAssignment(in.N(), in.M()), Profit: 999999}, nil
	})
	defer core.Unregister("test-cli-wrong-profit")
	path := writeTestInstance(t)
	var out bytes.Buffer
	err := run(context.Background(), []string{"-in", path, "-solver", "test-cli-wrong-profit"}, &out)
	var invalid *core.InvalidSolutionError
	if !errors.As(err, &invalid) {
		t.Fatalf("err = %v, want *core.InvalidSolutionError\n%s", err, out.String())
	}
	if strings.Contains(out.String(), "999999") {
		t.Errorf("the wrong profit was printed:\n%s", out.String())
	}
}

// writeTestBatch saves a batch envelope of small named instances.
func writeTestBatch(t *testing.T, names ...string) string {
	t.Helper()
	ins := make([]*model.Instance, len(names))
	for k, name := range names {
		in := gen.MustGenerate(gen.Config{
			Family: gen.Uniform, Variant: model.Sectors, Seed: int64(20 + k), N: 12, M: 2,
		})
		in.Name = name
		ins[k] = in
	}
	path := filepath.Join(t.TempDir(), "batch.json")
	if err := model.SaveBatchFile(path, ins); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunBatchSolvesEnvelope(t *testing.T) {
	path := writeTestBatch(t, "alpha", "beta", "gamma")
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-batch", "-in", path, "-workers", "2", "-v"}, &out); err != nil {
		t.Fatalf("run -batch: %v\n%s", err, out.String())
	}
	for _, want := range []string{"[0] alpha", "[1] beta", "[2] gamma", "profit=", "total", "ok=3 failed=0", "antenna"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("batch output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunBatchFailedItemExitsNonzero: one failing item fails the run (exit
// 1 in main) while the other items still print their solutions.
func TestRunBatchFailedItemExitsNonzero(t *testing.T) {
	core.Register("test-batch-cli-fail", func(ctx context.Context, in *model.Instance, opt core.Options) (model.Solution, error) {
		if in.Name == "bad" {
			return model.Solution{}, errors.New("injected item failure")
		}
		return core.SolveGreedy(ctx, in, opt)
	})
	defer core.Unregister("test-batch-cli-fail")
	path := writeTestBatch(t, "good", "bad")
	var out bytes.Buffer
	err := run(context.Background(), []string{"-batch", "-in", path, "-solver", "test-batch-cli-fail"}, &out)
	if err == nil {
		t.Fatal("batch with a failed item must error")
	}
	var de *degradedError
	if errors.As(err, &de) {
		t.Error("a hard item failure must not exit with the degraded code")
	}
	if !strings.Contains(out.String(), "ERROR") || !strings.Contains(out.String(), "[0] good") {
		t.Errorf("batch output missing the failure line or the healthy item:\n%s", out.String())
	}
}

// TestRunBatchTimeoutFallbackDegrades: per-item deadlines with the default
// -fallback route failing items to the safety net and exit with the
// degraded sentinel, mirroring the single-solve contract.
func TestRunBatchTimeoutFallbackDegrades(t *testing.T) {
	core.Register("test-batch-cli-hang", func(ctx context.Context, in *model.Instance, opt core.Options) (model.Solution, error) {
		<-ctx.Done()
		return model.Solution{}, ctx.Err()
	})
	defer core.Unregister("test-batch-cli-hang")
	path := writeTestBatch(t, "one", "two")
	var out bytes.Buffer
	err := run(context.Background(), []string{"-batch", "-in", path, "-solver", "test-batch-cli-hang", "-timeout", "50ms"}, &out)
	var de *degradedError
	if !errors.As(err, &de) {
		t.Fatalf("error %T %v, want *degradedError", err, err)
	}
	if !strings.Contains(out.String(), "DEGRADED") || !strings.Contains(out.String(), "degraded=2") {
		t.Errorf("batch output missing degraded markers:\n%s", out.String())
	}
}

func TestRunBatchRejectsViz(t *testing.T) {
	path := writeTestBatch(t, "only")
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-batch", "-viz", "-in", path}, &out); err == nil {
		t.Error("-batch with -viz must error")
	}
}

func TestRunBatchRejectsSingleEnvelope(t *testing.T) {
	path := writeTestInstance(t)
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-batch", "-in", path}, &out); err == nil {
		t.Error("-batch on a single-instance envelope must error")
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{}, &out); err == nil {
		t.Error("missing -in must error")
	}
	if err := run(context.Background(), []string{"-in", "/nonexistent.json"}, &out); err == nil {
		t.Error("missing file must error")
	}
	path := writeTestInstance(t)
	if err := run(context.Background(), []string{"-in", path, "-solver", "bogus"}, &out); err == nil {
		t.Error("unknown solver must error")
	}
	if err := run(context.Background(), []string{"-bogusflag"}, &out); err == nil {
		t.Error("unknown flag must error")
	}
	// An -eps outside [0,1) is a flag error, raised before the instance
	// is read: the missing file must not be what fails.
	for _, args := range [][]string{{"-eps", "1.5"}, {"-eps", "-0.5"}, {"-eps", "NaN"}, {"-eps", "1"}, {"-batch", "-eps", "1.5"}} {
		err := run(context.Background(), append([]string{"-in", "/nonexistent.json"}, args...), &out)
		if err == nil || !strings.Contains(err.Error(), "-eps") {
			t.Errorf("%v: got %v, want an -eps error", args, err)
		}
	}
}

// fakeDaemon solves /solve requests in-process with the greedy solver,
// speaking sectord's wire format. profitSkew shifts the claimed profit to
// simulate a lying daemon; failFirst makes the first request shed with 503.
func fakeDaemon(t *testing.T, profitSkew int64, failFirst bool, provenance map[string]any) *httptest.Server {
	t.Helper()
	var calls atomic.Int64
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failFirst && calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "0")
			http.Error(w, `{"error":"shedding"}`, http.StatusServiceUnavailable)
			return
		}
		var req struct {
			Solver   string          `json:"solver"`
			Seed     *int64          `json:"seed"`
			Instance *model.Instance `json:"instance"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, `{"error":"bad body"}`, http.StatusBadRequest)
			return
		}
		if req.Instance == nil {
			http.Error(w, `{"error":"bad instance"}`, http.StatusBadRequest)
			return
		}
		req.Instance.Normalize()
		solver, err := core.Get(req.Solver)
		if err != nil {
			http.Error(w, `{"error":"unknown solver"}`, http.StatusBadRequest)
			return
		}
		var seed int64 = 1
		if req.Seed != nil {
			seed = *req.Seed
		}
		sol, err := solver(r.Context(), req.Instance, core.Options{Seed: seed, SkipBound: true})
		if err != nil {
			http.Error(w, `{"error":"solve failed"}`, http.StatusInternalServerError)
			return
		}
		resp := map[string]any{
			"solver": req.Solver, "algorithm": sol.Algorithm,
			"profit":      sol.Profit + profitSkew,
			"orientation": sol.Assignment.Orientation,
			"owner":       sol.Assignment.Owner,
			"elapsed_ms":  0.1,
		}
		for k, v := range provenance {
			resp[k] = v
		}
		json.NewEncoder(w).Encode(resp)
	}))
}

func TestRunServerSolvesRemotely(t *testing.T) {
	path := writeTestInstance(t)
	ts := fakeDaemon(t, 0, true, nil)
	defer ts.Close()
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-in", path, "-server", ts.URL, "-v"}, &out); err != nil {
		t.Fatalf("remote run: %v\n%s", err, out.String())
	}
	for _, want := range []string{"remote", "attempts=2", "instance", "solution", "served", "antenna  0"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("remote output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunServerRejectsTamperedAnswer pins the local re-verification: a
// daemon whose profit claim does not match its own assignment is an error,
// never a printed report.
func TestRunServerRejectsTamperedAnswer(t *testing.T) {
	path := writeTestInstance(t)
	ts := fakeDaemon(t, 1, false, nil)
	defer ts.Close()
	var out bytes.Buffer
	err := run(context.Background(), []string{"-in", path, "-server", ts.URL}, &out)
	if err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("tampered profit must fail local verification, got %v", err)
	}
}

// TestRunServerDegradedProvenance pins how a daemon's degraded flag
// reaches the exit code: a degraded answer with its reason prints the
// degraded line and exits 3, and a flag that disagrees with the reason is
// a malformed answer, never a healthy report.
func TestRunServerDegradedProvenance(t *testing.T) {
	path := writeTestInstance(t)
	cases := []struct {
		name       string
		provenance map[string]any
		wantLine   string // the degraded line, or "" for a healthy report
		wantErr    string // substring of a plain (non-degraded) error
	}{
		{"healthy", nil, "", ""},
		{"degraded", map[string]any{"degraded": true, "solver_used": "greedy", "fallback_reason": "deadline"},
			`degraded   requested "greedy" fell back to "greedy" (deadline)`, ""},
		{"degraded-no-reason", map[string]any{"degraded": true, "solver_used": "greedy"}, "", "malformed"},
		{"reason-not-degraded", map[string]any{"fallback_reason": "deadline"}, "", "malformed"},
	}
	for _, c := range cases {
		ts := fakeDaemon(t, 0, false, c.provenance)
		var out bytes.Buffer
		err := run(context.Background(), []string{"-in", path, "-server", ts.URL}, &out)
		ts.Close()
		var de *degradedError
		switch {
		case c.wantErr != "":
			if err == nil || errors.As(err, &de) || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("%s: err = %v, want a malformed-answer error containing %q", c.name, err, c.wantErr)
			}
		case c.wantLine != "":
			if !errors.As(err, &de) {
				t.Errorf("%s: err = %v, want *degradedError (exit code %d)", c.name, err, exitDegraded)
			}
			if !strings.Contains(out.String(), c.wantLine+"\n") {
				t.Errorf("%s: output missing %q:\n%s", c.name, c.wantLine, out.String())
			}
		default:
			if err != nil || strings.Contains(out.String(), "degraded") {
				t.Errorf("%s: err = %v, output:\n%s\nwant a healthy report", c.name, err, out.String())
			}
		}
	}
}

// TestRunServerCancelMidRetry: a cancellation while the client backs off
// from a shed answer is an error wrapping the context's, returned at
// once rather than after the daemon's Retry-After.
func TestRunServerCancelMidRetry(t *testing.T) {
	path := writeTestInstance(t)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		http.Error(w, `{"error":"shed"}`, http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	var out bytes.Buffer
	err := run(ctx, []string{"-in", path, "-server", ts.URL}, &out)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want one wrapping context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("run slept %v; cancellation must interrupt the Retry-After floor", elapsed)
	}
}

func TestRunServerFlagConflicts(t *testing.T) {
	path := writeTestInstance(t)
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-batch", "-in", path, "-server", "http://x"}, &out); err == nil {
		t.Error("-batch with -server must error")
	}
	if err := run(context.Background(), []string{"-in", path, "-server", "http://x", "-eps", "0.1"}, &out); err == nil {
		t.Error("-eps with -server must error")
	}
	// The daemon always computes the bound, so -bound=false must be refused
	// before a request reaches it.
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "unexpected request", http.StatusTeapot)
	}))
	defer ts.Close()
	err := run(context.Background(), []string{"-in", path, "-server", ts.URL, "-bound=false"}, &out)
	if err == nil || !strings.Contains(err.Error(), "-bound=false is local-only") {
		t.Errorf("-bound=false with -server: got %v, want the local-only error", err)
	}
	if n := hits.Load(); n != 0 {
		t.Errorf("-bound=false with -server sent %d requests, want 0", n)
	}
}
