package daemon

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sectorpack/internal/core"
	"sectorpack/internal/model"
)

func newTestLogger(w io.Writer) *slog.Logger {
	return slog.New(slog.NewTextHandler(w, nil))
}

// The fault-injection registry driven through httptest: each misbehaving
// solver is registered under a test- name and thrown at a live Server to
// prove the ISSUE-3 httptest acceptance criteria — panics and hangs leave
// the daemon serving, degraded mode turns a hung solver into a 200 with a
// feasible greedy answer, and invalid solver output is never served.

func registerPanickingSolver(name string) {
	core.Register(name, func(context.Context, *model.Instance, core.Options) (model.Solution, error) {
		panic("injected: " + name)
	})
}

func registerHangingSolver(name string) {
	core.Register(name, func(ctx context.Context, in *model.Instance, opt core.Options) (model.Solution, error) {
		<-ctx.Done()
		return model.Solution{}, ctx.Err()
	})
}

// registerInvalidSolver returns every customer piled onto antenna 0 —
// uncovered and over capacity — with a matching bogus profit claim.
func registerInvalidSolver(name string) {
	core.Register(name, func(ctx context.Context, in *model.Instance, opt core.Options) (model.Solution, error) {
		as := model.NewAssignment(in.N(), in.M())
		var profit int64
		for i := range as.Owner {
			as.Owner[i] = 0
			profit += in.Customers[i].Profit
		}
		return model.Solution{Assignment: as, Profit: profit, Algorithm: name}, nil
	})
}

func varsInt(t *testing.T, ts *httptest.Server, name string) int64 {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	raw, ok := vars[name]
	if !ok {
		t.Fatalf("no var %q in /debug/vars", name)
	}
	var v int64
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("var %s = %s: %v", name, raw, err)
	}
	return v
}

// assertDaemonAlive proves the server still solves after a fault.
func assertDaemonAlive(t *testing.T, ts *httptest.Server) {
	t.Helper()
	resp, body := postSolve(t, ts.Client(), ts.URL, solveBody(t, "greedy", sectorsInstance(), nil))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("daemon no longer serving after fault: status %d, body %s", resp.StatusCode, body)
	}
}

func TestPanickingSolverYields500AndLiveDaemon(t *testing.T) {
	registerPanickingSolver("test-fault-panic")
	ts := httptest.NewServer(NewServer(Config{}).Handler())
	defer ts.Close()

	resp, body := postSolve(t, ts.Client(), ts.URL, solveBody(t, "test-fault-panic", sectorsInstance(), nil))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking solver: status %d (want 500), body %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "panicked") {
		t.Errorf("500 body %q does not name the panic", body)
	}
	assertDaemonAlive(t, ts)
	if got := varsInt(t, ts, "sectord.panics"); got != 1 {
		t.Errorf("sectord.panics = %d, want 1", got)
	}
}

func TestHangingSolverWithoutDegradedGets503(t *testing.T) {
	registerHangingSolver("test-fault-hang")
	ts := httptest.NewServer(NewServer(Config{}).Handler())
	defer ts.Close()

	body := solveBody(t, "test-fault-hang", sectorsInstance(), map[string]any{"timeout_ms": 50})
	resp, out := postSolve(t, ts.Client(), ts.URL, body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("hung solver without degraded mode: status %d (want 503), body %s", resp.StatusCode, out)
	}
	assertDaemonAlive(t, ts)
	if got := varsInt(t, ts, "sectord.cancellations"); got != 1 {
		t.Errorf("sectord.cancellations = %d, want 1", got)
	}
}

func TestHangingSolverWithDegradedAllowGets200Greedy(t *testing.T) {
	registerHangingSolver("test-fault-hang2")
	ts := httptest.NewServer(NewServer(Config{}).Handler())
	defer ts.Close()

	in := sectorsInstance()
	body := solveBody(t, "test-fault-hang2", in, map[string]any{"timeout_ms": 50})
	resp, err := ts.Client().Post(ts.URL+"/solve?degraded=allow", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr model.SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded=allow on a hung solver: status %d (want 200)", resp.StatusCode)
	}
	if !sr.Degraded {
		t.Fatal(`response missing "degraded": true`)
	}
	if sr.SolverUsed != "greedy" {
		t.Errorf("solver_used = %q, want greedy", sr.SolverUsed)
	}
	if sr.FallbackReason != core.FallbackDeadline {
		t.Errorf("fallback_reason = %q, want %q", sr.FallbackReason, core.FallbackDeadline)
	}
	as := &model.Assignment{Orientation: sr.Orientation, Owner: sr.Owner}
	if err := as.Check(in); err != nil {
		t.Errorf("degraded assignment infeasible: %v", err)
	}
	if got := as.Profit(in); got != sr.Profit {
		t.Errorf("degraded profit %d but assignment recomputes to %d", sr.Profit, got)
	}
	assertDaemonAlive(t, ts)
	if got := varsInt(t, ts, "sectord.fallbacks"); got != 1 {
		t.Errorf("sectord.fallbacks = %d, want 1", got)
	}
	if got := varsInt(t, ts, "sectord.hedge_wins"); got != 1 {
		t.Errorf("sectord.hedge_wins = %d, want 1 (greedy finished well before the deadline)", got)
	}
}

func TestPanickingSolverWithDegradedAllowFallsBack(t *testing.T) {
	registerPanickingSolver("test-fault-panic2")
	ts := httptest.NewServer(NewServer(Config{}).Handler())
	defer ts.Close()

	body := solveBody(t, "test-fault-panic2", sectorsInstance(), nil)
	resp, err := ts.Client().Post(ts.URL+"/solve?degraded=allow", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr model.SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !sr.Degraded || sr.FallbackReason != core.FallbackPanic {
		t.Fatalf("status %d degraded %v reason %q, want 200/true/panic", resp.StatusCode, sr.Degraded, sr.FallbackReason)
	}
	if got := varsInt(t, ts, "sectord.panics"); got != 1 {
		t.Errorf("sectord.panics = %d, want 1 (degraded panic still counted)", got)
	}
	assertDaemonAlive(t, ts)
}

// TestDegradedPanicCountedOnEveryEndpoint pins that /solve and
// /solve/batch keep the same answer accounting: a panicking primary whose
// fallback answered counts one solve, one fallback and one panic on both.
func TestDegradedPanicCountedOnEveryEndpoint(t *testing.T) {
	const solver = "test-fault-panic-count"
	registerPanickingSolver(solver)
	defer core.Unregister(solver)
	rows := []struct {
		name string
		post func(t *testing.T, ts *httptest.Server) (status int, degraded bool, reason string)
	}{
		{"solve", func(t *testing.T, ts *httptest.Server) (int, bool, string) {
			resp, body := postSolveQuery(t, ts, "?degraded=allow", solveBody(t, solver, sectorsInstance(), nil))
			var sr model.SolveResponse
			if err := json.Unmarshal(body, &sr); err != nil {
				t.Fatalf("solve response not JSON: %v\n%s", err, body)
			}
			return resp.StatusCode, sr.Degraded, sr.FallbackReason
		}},
		{"batch", func(t *testing.T, ts *httptest.Server) (int, bool, string) {
			resp, br, raw := postBatch(t, ts.Client(), ts.URL, "?degraded=allow", batchBody(t, solver, []any{sectorsInstance()}, nil))
			if len(br.Items) != 1 {
				t.Fatalf("batch: %d items, want 1\n%s", len(br.Items), raw)
			}
			if br.Items[0].SolveResponse == nil {
				t.Fatalf("batch item failed: %s", br.Items[0].Error)
			}
			return resp.StatusCode, br.Items[0].Degraded, br.Items[0].FallbackReason
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			ts := httptest.NewServer(NewServer(Config{}).Handler())
			defer ts.Close()
			status, degraded, reason := row.post(t, ts)
			if status != http.StatusOK || !degraded || reason != core.FallbackPanic {
				t.Fatalf("status %d degraded %v reason %q, want 200/true/panic", status, degraded, reason)
			}
			for _, v := range []string{"sectord.solved", "sectord.fallbacks", "sectord.panics"} {
				if got := varsInt(t, ts, v); got != 1 {
					t.Errorf("%s = %d, want 1", v, got)
				}
			}
		})
	}
}

// postSolveQuery POSTs body to /solve with the given query string.
func postSolveQuery(t *testing.T, ts *httptest.Server, query string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/solve"+query, "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

func TestInvalidSolverOutputRejectedNotServed(t *testing.T) {
	registerInvalidSolver("test-fault-invalid")
	ts := httptest.NewServer(NewServer(Config{}).Handler())
	defer ts.Close()

	// Without degraded mode: the post-solve Check gate turns the
	// infeasible answer into a 500.
	resp, body := postSolve(t, ts.Client(), ts.URL, solveBody(t, "test-fault-invalid", sectorsInstance(), nil))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("invalid solver output: status %d (want 500), body %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "invalid") {
		t.Errorf("500 body %q does not name the invalid output", body)
	}
	if got := varsInt(t, ts, "sectord.invalid"); got != 1 {
		t.Errorf("sectord.invalid = %d, want 1", got)
	}

	// With degraded mode: the gate failure is a fallback trigger and the
	// greedy answer is served instead.
	in := sectorsInstance()
	resp2, err := ts.Client().Post(ts.URL+"/solve?degraded=allow", "application/json",
		strings.NewReader(string(solveBody(t, "test-fault-invalid", in, nil))))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var sr model.SolveResponse
	if err := json.NewDecoder(resp2.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusOK || !sr.Degraded || sr.FallbackReason != core.FallbackInvalid {
		t.Fatalf("status %d degraded %v reason %q, want 200/true/invalid", resp2.StatusCode, sr.Degraded, sr.FallbackReason)
	}
	as := &model.Assignment{Orientation: sr.Orientation, Owner: sr.Owner}
	if err := as.Check(in); err != nil {
		t.Errorf("served degraded assignment infeasible: %v", err)
	}
	assertDaemonAlive(t, ts)
}

func TestDegradedParamValidation(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{}).Handler())
	defer ts.Close()
	body := solveBody(t, "greedy", sectorsInstance(), nil)
	resp, err := ts.Client().Post(ts.URL+"/solve?degraded=maybe", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("degraded=maybe: status %d, want 400", resp.StatusCode)
	}
	for _, v := range []string{"deny", ""} {
		url := ts.URL + "/solve"
		if v != "" {
			url += "?degraded=" + v
		}
		resp, err := ts.Client().Post(url, "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("degraded=%q on a healthy solver: status %d, want 200", v, resp.StatusCode)
		}
	}
}

// TestDegradedModeBitIdenticalWhenHealthy pins the serving-layer half of
// the determinism guarantee: a healthy solver answers identically with and
// without ?degraded=allow (modulo elapsed time and the solver_used stamp).
func TestDegradedModeBitIdenticalWhenHealthy(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{}).Handler())
	defer ts.Close()
	in := sectorsInstance()
	body := solveBody(t, "localsearch", in, nil)

	_, plainBody := postSolve(t, ts.Client(), ts.URL, body)
	resp, err := ts.Client().Post(ts.URL+"/solve?degraded=allow", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var plain, hedged model.SolveResponse
	if err := json.Unmarshal(plainBody, &plain); err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&hedged); err != nil {
		t.Fatal(err)
	}
	if hedged.Degraded {
		t.Fatal("healthy hedged request marked degraded")
	}
	if hedged.SolverUsed != "localsearch" {
		t.Errorf("solver_used = %q, want localsearch", hedged.SolverUsed)
	}
	if plain.Profit != hedged.Profit || plain.Algorithm != hedged.Algorithm {
		t.Errorf("profit/algorithm drifted: %d/%s vs %d/%s", plain.Profit, plain.Algorithm, hedged.Profit, hedged.Algorithm)
	}
	for i := range plain.Orientation {
		if math.Float64bits(plain.Orientation[i]) != math.Float64bits(hedged.Orientation[i]) {
			t.Fatalf("orientation[%d] drifted: %v vs %v", i, plain.Orientation[i], hedged.Orientation[i])
		}
	}
	for i := range plain.Owner {
		if plain.Owner[i] != hedged.Owner[i] {
			t.Fatalf("owner[%d] drifted: %d vs %d", i, plain.Owner[i], hedged.Owner[i])
		}
	}
}

func TestStructuredRequestLogging(t *testing.T) {
	registerPanickingSolver("test-fault-logpanic")
	var buf syncBuffer
	logger := newTestLogger(&buf)
	ts := httptest.NewServer(NewServer(Config{Logger: logger}).Handler())
	defer ts.Close()

	postSolve(t, ts.Client(), ts.URL, solveBody(t, "greedy", sectorsInstance(), nil))
	postSolve(t, ts.Client(), ts.URL, solveBody(t, "test-fault-logpanic", sectorsInstance(), nil))

	logs := buf.String()
	for _, want := range []string{
		"request_id=", "solver=greedy", "duration_ms=", "outcome=ok", "degraded=false", "status=200",
		"solver=test-fault-logpanic", "outcome=panic", "status=500", "stack=",
	} {
		if !strings.Contains(logs, want) {
			t.Errorf("structured log missing %q:\n%s", want, logs)
		}
	}
	// Request IDs are unique per request.
	first := strings.Index(logs, "request_id=")
	last := strings.LastIndex(logs, "request_id=")
	if first == last {
		t.Fatal("expected at least two request_id fields")
	}
	id1 := strings.Fields(logs[first:])[0]
	id2 := strings.Fields(logs[last:])[0]
	if id1 == id2 {
		t.Errorf("request IDs not unique: %s repeated", id1)
	}
}

func TestDegradedRequestLogged(t *testing.T) {
	registerHangingSolver("test-fault-hang3")
	var buf syncBuffer
	ts := httptest.NewServer(NewServer(Config{Logger: newTestLogger(&buf)}).Handler())
	defer ts.Close()

	body := solveBody(t, "test-fault-hang3", sectorsInstance(), map[string]any{"timeout_ms": 50})
	resp, err := ts.Client().Post(ts.URL+"/solve?degraded=allow", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(buf.String(), "outcome=degraded") {
		if time.Now().After(deadline) {
			t.Fatalf("no degraded log line:\n%s", buf.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !strings.Contains(buf.String(), "degraded=true") {
		t.Errorf("degraded log line missing degraded=true:\n%s", buf.String())
	}
}
