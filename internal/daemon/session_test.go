package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"sectorpack/internal/core"
	"sectorpack/internal/gen"
	"sectorpack/internal/model"
)

func sessionCreateBody(t *testing.T, solver string, in *model.Instance, seed int64) []byte {
	t.Helper()
	b, err := json.Marshal(map[string]any{
		"solver": solver, "seed": seed, "format_version": 1, "instance": in,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func sessionDeltaBody(t *testing.T, d model.Delta) []byte {
	t.Helper()
	b, err := json.Marshal(map[string]any{"format_version": 1, "delta": d})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func doJSON(t *testing.T, client *http.Client, method, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// TestSessionLifecycleDifferential drives a full session over HTTP through
// a generated churn trace and pins the service-level determinism contract:
// every response (the create's initial solve and each delta's incremental
// re-solve) is bit-identical to a from-scratch solve of the independently
// materialized instance, and every session response says the solve cache
// was not involved.
func TestSessionLifecycleDifferential(t *testing.T) {
	tr := gen.MustGenerateTrace(gen.ChurnConfig{
		Base:          gen.Config{Family: gen.Uniform, Seed: 9, N: 80, M: 6, Bands: 3, Tightness: 2, ProfitSpread: 0.4},
		Steps:         3,
		Rate:          0.05,
		Localized:     true,
		CapacityEvery: 2,
	})
	const seed = 42
	solver, err := core.Get("greedy")
	if err != nil {
		t.Fatal(err)
	}
	fromScratch := func(step int) model.Solution {
		mat, err := tr.Materialize(step)
		if err != nil {
			t.Fatalf("materialize %d: %v", step, err)
		}
		sol, err := solver(context.Background(), mat, core.Options{Seed: seed})
		if err != nil {
			t.Fatalf("from-scratch solve at step %d: %v", step, err)
		}
		return sol
	}
	checkResponse := func(step int, resp *http.Response, body []byte) sessionResponse {
		t.Helper()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("step %d: status %d, body %s", step, resp.StatusCode, body)
		}
		if got := resp.Header.Get(cacheHeader); got != cacheOff {
			t.Errorf("step %d: %s = %q, want %q (sessions never touch the cache)", step, cacheHeader, got, cacheOff)
		}
		var sr sessionResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatalf("step %d: bad response JSON: %v", step, err)
		}
		want := fromScratch(step)
		if sr.Profit != want.Profit {
			t.Errorf("step %d: profit %d, want %d", step, sr.Profit, want.Profit)
		}
		for j, a := range sr.Orientation {
			if math.Float64bits(a) != math.Float64bits(want.Assignment.Orientation[j]) {
				t.Errorf("step %d: orientation[%d] = %v, want %v (bit-identity)", step, j, a, want.Assignment.Orientation[j])
			}
		}
		for i, o := range sr.Owner {
			if o != want.Assignment.Owner[i] {
				t.Errorf("step %d: owner[%d] = %d, want %d", step, i, o, want.Assignment.Owner[i])
			}
		}
		return sr
	}

	ts := httptest.NewServer(NewServer(Config{Timeout: time.Minute}).Handler())
	defer ts.Close()

	resp, body := doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/session",
		sessionCreateBody(t, "greedy", tr.Instance, seed))
	sr := checkResponse(0, resp, body)
	if sr.SessionID == "" {
		t.Fatal("create response has no session_id")
	}
	if sr.Stats.Solves != 1 {
		t.Errorf("create stats %+v, want 1 solve", sr.Stats)
	}
	sid := sr.SessionID

	for k, d := range tr.Deltas {
		resp, body := doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/session/"+sid+"/delta", sessionDeltaBody(t, d))
		sr := checkResponse(k+1, resp, body)
		if sr.SessionID != sid {
			t.Errorf("delta %d: response names session %q", k, sr.SessionID)
		}
		if got := sr.Stats.Deltas; got != int64(k+1) {
			t.Errorf("delta %d: stats count %d deltas", k, got)
		}
	}

	resp, body = doJSON(t, ts.Client(), http.MethodDelete, ts.URL+"/session/"+sid, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d, body %s", resp.StatusCode, body)
	}
	var dr sessionDeleteResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Stats.Deltas != int64(len(tr.Deltas)) || dr.Stats.Solves != int64(len(tr.Deltas))+1 {
		t.Errorf("final stats %+v, want %d deltas / %d solves", dr.Stats, len(tr.Deltas), len(tr.Deltas)+1)
	}
	// The session is gone: further deltas and a second delete both 404.
	resp, _ = doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/session/"+sid+"/delta", sessionDeltaBody(t, tr.Deltas[0]))
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("delta after delete: status %d, want 404", resp.StatusCode)
	}
	resp, _ = doJSON(t, ts.Client(), http.MethodDelete, ts.URL+"/session/"+sid, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("second delete: status %d, want 404", resp.StatusCode)
	}
}

// TestSessionCacheIsolation is the cache-header audit's regression test:
// session traffic must never read or populate the fingerprint solve cache
// (its entries describe one-shot solves; a session's identity is its delta
// history), while /solve keeps caching normally on the same server.
func TestSessionCacheIsolation(t *testing.T) {
	srv := NewServer(Config{Timeout: time.Minute})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Populate the cache with a one-shot solve of the same instance the
	// session will churn: if sessions consulted the cache, this entry is
	// exactly what they would hit.
	tr := gen.MustGenerateTrace(gen.ChurnConfig{
		Base:  gen.Config{Family: gen.Uniform, Seed: 3, N: 40, M: 4, Bands: 2, Tightness: 2},
		Steps: 2, Rate: 0.05,
	})
	resp, body := postSolve(t, ts.Client(), ts.URL, solveBody(t, "greedy", tr.Instance, nil))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seed solve: status %d, body %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(cacheHeader); got != "miss" {
		t.Fatalf("seed solve: %s = %q, want miss", cacheHeader, got)
	}
	before := srv.cache.Stats()
	if before.Entries != 1 {
		t.Fatalf("setup: cache holds %d entries, want 1", before.Entries)
	}

	resp, body = doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/session",
		sessionCreateBody(t, "greedy", tr.Instance, 1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create: status %d, body %s", resp.StatusCode, body)
	}
	var sr sessionResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	for k, d := range tr.Deltas {
		resp, body := doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/session/"+sr.SessionID+"/delta", sessionDeltaBody(t, d))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("delta %d: status %d, body %s", k, resp.StatusCode, body)
		}
		if got := resp.Header.Get(cacheHeader); got != cacheOff {
			t.Errorf("delta %d: %s = %q, want %q", k, cacheHeader, got, cacheOff)
		}
	}
	if resp, _ := doJSON(t, ts.Client(), http.MethodDelete, ts.URL+"/session/"+sr.SessionID, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}

	// The cache is exactly as the one-shot solve left it: same entry count,
	// no new stores, and — decisively — no hits: nothing on the session
	// path even consulted it.
	after := srv.cache.Stats()
	if after != before {
		t.Errorf("session traffic perturbed the cache:\n before %+v\n after  %+v", before, after)
	}

	// /solve still caches on this server: the seeded entry hits.
	resp, _ = postSolve(t, ts.Client(), ts.URL, solveBody(t, "greedy", tr.Instance, nil))
	if got := resp.Header.Get(cacheHeader); got != "hit" {
		t.Errorf("follow-up /solve: %s = %q, want hit", cacheHeader, got)
	}
}

// TestSessionBadRequests is the session half of the route × failure matrix
// (see TestSolveBadRequests), then checks a rejected delta leaves its
// session usable. Session routes never count toward sectord.requests,
// ignore the degraded/cache params, and answer X-Sectord-Cache: off on
// every response their handlers write.
func TestSessionBadRequests(t *testing.T) {
	registerMatrixSolvers(t)
	in := matrixInstance()
	create := func(solver string, extra map[string]any) string {
		req := map[string]any{"solver": solver, "seed": 1, "format_version": 1, "instance": in}
		for k, v := range extra {
			req[k] = v
		}
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	delta := func(extra map[string]any) string {
		req := map[string]any{"format_version": 1, "delta": model.Delta{Remove: []int{0}}}
		for k, v := range extra {
			req[k] = v
		}
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	deadline := map[string]any{"timeout_ms": 30}
	one := func(names ...string) map[string]int64 {
		m := map[string]int64{}
		for _, n := range names {
			m[n]++
		}
		return m
	}
	const muxMethod = "Method Not Allowed\n"
	const dpath = "/session/{id}/delta"
	runRouteMatrix(t, []routeCase{
		{name: "create: wrong method", method: http.MethodGet, path: "/session",
			status: 405, rawBody: muxMethod, allow: "POST"},
		{name: "create: shed", path: "/session", body: create("greedy", nil), shed: true,
			status: 429, errMsg: "server at capacity", retry: "1", cache: cacheOff, vars: one("shed")},
		{name: "create: degraded param ignored", path: "/session?degraded=maybe", body: create("greedy", nil),
			status: 200, cache: cacheOff},
		{name: "create: cache param ignored", path: "/session?cache=maybe", body: create("greedy", nil),
			status: 200, cache: cacheOff},
		{name: "create: invalid JSON", path: "/session", body: "{not json",
			status: 400, errMsg: "decode request: invalid character 'n' looking for beginning of object key string", cache: cacheOff, vars: one("failures")},
		{name: "create: bad format version", path: "/session", body: `{"solver":"greedy","format_version":9,"instance":{}}`,
			status: 400, errMsg: "unsupported format_version 9 (want 1)", cache: cacheOff, vars: one("failures")},
		{name: "create: missing instance", path: "/session", body: `{"solver":"greedy","format_version":1}`,
			status: 400, errMsg: "request missing instance", cache: cacheOff, vars: one("failures")},
		{name: "create: invalid instance", path: "/session", body: `{"solver":"greedy","format_version":1,"instance":{"variant":0,"customers":[{"id":0,"theta":0,"r":-2,"demand":1}],"antennas":[]}}`,
			status: 400, errMsg: "solve failed: session: invalid instance: customer 0: invalid radius -2", cache: cacheOff, vars: one("failures")},
		{name: "create: unknown solver", path: "/session", body: create("no-such-solver", nil),
			status: 400, errMsg: unknownSolverMsg(t), cache: cacheOff, vars: one("failures")},
		{name: "create: solver error", path: "/session", body: create("test-rt-error", nil),
			status: 400, errMsg: "solve failed: injected solver error", cache: cacheOff, vars: one("failures")},
		{name: "create: panic", path: "/session", body: create("test-rt-panic", nil),
			status: 500, errMsg: `solve failed: core: solver "test-rt-panic" panicked: injected matrix panic`, cache: cacheOff, vars: one("panics")},
		{name: "create: deadline", path: "/session", body: create("test-rt-hang", deadline),
			status: 503, errMsg: "solve aborted: context deadline exceeded", cache: cacheOff, vars: one("cancellations")},

		{name: "delta: wrong method", method: http.MethodGet, path: dpath,
			status: 405, rawBody: muxMethod, allow: "POST"},
		{name: "delta: shed", path: dpath, body: delta(nil), shed: true,
			status: 429, errMsg: "server at capacity", retry: "1", cache: cacheOff, vars: one("shed")},
		{name: "delta: degraded param ignored", path: dpath + "?degraded=maybe", body: delta(nil),
			status: 200, cache: cacheOff},
		{name: "delta: cache param ignored", path: dpath + "?cache=maybe", body: delta(nil),
			status: 200, cache: cacheOff},
		{name: "delta: invalid JSON", path: dpath, body: "{not json",
			status: 400, errMsg: "decode request: invalid character 'n' looking for beginning of object key string", cache: cacheOff, vars: one("failures")},
		{name: "delta: bad format version", path: dpath, body: delta(map[string]any{"format_version": 9}),
			status: 400, errMsg: "unsupported format_version 9 (want 1)", cache: cacheOff, vars: one("failures")},
		{name: "delta: missing delta is empty", path: dpath, body: `{"format_version":1}`,
			status: 200, cache: cacheOff},
		{name: "delta: unknown session", path: "/session/s-none/delta", body: delta(nil),
			status: 404, errMsg: `no session "s-none" (expired or never created)`, cache: cacheOff, vars: one("failures")},
		{name: "delta: invalid delta", path: dpath, body: `{"format_version":1,"delta":{"remove":[999]}}`,
			status: 400, errMsg: "solve failed: invalid delta: remove[0]: customer 999 out of range [0,20)", cache: cacheOff, vars: one("failures")},
		{name: "delta: solver error", path: dpath, session: "test-rt-error-after", body: delta(nil),
			status: 400, errMsg: "solve failed: injected solver error", cache: cacheOff, vars: one("failures")},
		{name: "delta: panic", path: dpath, session: "test-rt-panic-after", body: delta(nil),
			status: 500, errMsg: `solve failed: core: solver "test-rt-panic-after" panicked: injected matrix panic`, cache: cacheOff, vars: one("panics")},
		{name: "delta: deadline", path: dpath, session: "test-rt-hang-after", body: delta(deadline),
			status: 503, errMsg: "solve aborted: context deadline exceeded", cache: cacheOff, vars: one("cancellations")},
	})

	ts := httptest.NewServer(NewServer(Config{}).Handler())
	defer ts.Close()

	// A rejected delta leaves the session usable.
	resp, body := doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/session", sessionCreateBody(t, "greedy", in, 1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create: status %d, body %s", resp.StatusCode, body)
	}
	var sr sessionResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	resp, body = doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/session/"+sr.SessionID+"/delta",
		sessionDeltaBody(t, model.Delta{Remove: []int{999}}))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("out-of-range delta: status %d (want 400), body %s", resp.StatusCode, body)
	}
	resp, body = doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/session/"+sr.SessionID+"/delta",
		sessionDeltaBody(t, model.Delta{Remove: []int{0}}))
	if resp.StatusCode != http.StatusOK {
		t.Errorf("session unusable after rejected delta: status %d, body %s", resp.StatusCode, body)
	}
}

// TestSessionCapAndEviction: the live-session cap sheds creates with 429,
// and idle sessions are lazily reaped after SessionTTL so the table drains
// without explicit deletes.
func TestSessionCapAndEviction(t *testing.T) {
	in := gen.MustGenerate(gen.Config{Family: gen.Uniform, Seed: 6, N: 15, M: 2, Tightness: 2})
	srv := NewServer(Config{SessionMax: 1, SessionTTL: 30 * time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/session", sessionCreateBody(t, "greedy", in, 1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first create: status %d, body %s", resp.StatusCode, body)
	}
	var sr sessionResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	resp, body = doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/session", sessionCreateBody(t, "greedy", in, 1))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("create beyond cap: status %d (want 429), body %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}

	// Let the first session go idle past the TTL; the next session request
	// sweeps it out, freeing the slot.
	time.Sleep(60 * time.Millisecond)
	resp, body = doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/session", sessionCreateBody(t, "greedy", in, 1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create after TTL: status %d (want 200 via eviction), body %s", resp.StatusCode, body)
	}
	resp, _ = doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/session/"+sr.SessionID+"/delta",
		sessionDeltaBody(t, model.Delta{Remove: []int{0}}))
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("delta to evicted session: status %d, want 404", resp.StatusCode)
	}

	// The counters saw all of it.
	vresp, err := ts.Client().Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer vresp.Body.Close()
	var vars map[string]json.RawMessage
	if err := json.NewDecoder(vresp.Body).Decode(&vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	intVar := func(name string) int64 {
		var v int64
		if err := json.Unmarshal(vars[name], &v); err != nil {
			t.Fatalf("var %s = %s: %v", name, vars[name], err)
		}
		return v
	}
	if got := intVar("sectord.sessions.created"); got != 2 {
		t.Errorf("sessions.created = %d, want 2", got)
	}
	if got := intVar("sectord.sessions.evicted"); got != 1 {
		t.Errorf("sessions.evicted = %d, want 1", got)
	}
	if got := intVar("sectord.sessions.active"); got != 1 {
		t.Errorf("sessions.active = %d, want 1", got)
	}
	if got := intVar("sectord.sessions.solves"); got < 2 {
		t.Errorf("sessions.solves = %d, want >= 2 (retired + live)", got)
	}
}

// TestSessionAllowlist: the solver allowlist covers session creates too.
func TestSessionAllowlist(t *testing.T) {
	in := gen.MustGenerate(gen.Config{Family: gen.Uniform, Seed: 8, N: 10, M: 2, Tightness: 2})
	ts := httptest.NewServer(NewServer(Config{Allowed: []string{"localsearch"}}).Handler())
	defer ts.Close()
	resp, body := doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/session", sessionCreateBody(t, "greedy", in, 1))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("disallowed solver: status %d (want 400), body %s", resp.StatusCode, body)
	}
	resp, body = doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/session", sessionCreateBody(t, "localsearch", in, 1))
	if resp.StatusCode != http.StatusOK {
		t.Errorf("allowed solver: status %d, body %s", resp.StatusCode, body)
	}
}
