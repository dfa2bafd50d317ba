package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sectorpack/internal/core"
	"sectorpack/internal/model"
)

// normalizeBody strips the per-request timing from a /solve response and
// re-renders it deterministically (json.Marshal sorts map keys), so two
// responses that differ only in elapsed_ms compare byte-equal.
func normalizeBody(t *testing.T, body []byte) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("response not JSON: %v\n%s", err, body)
	}
	delete(m, "elapsed_ms")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestSolveCacheHeaderLifecycle walks one instance through the cache
// states: miss populates, hit serves the identical bytes, bypass solves
// fresh but still matches, and a different seed misses again.
func TestSolveCacheHeaderLifecycle(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{}).Handler())
	defer ts.Close()
	in := sectorsInstance()
	body := solveBody(t, "greedy", in, nil)

	resp, first := postSolve(t, ts.Client(), ts.URL, body)
	if resp.StatusCode != http.StatusOK || resp.Header.Get(cacheHeader) != "miss" {
		t.Fatalf("first solve: status %d header %q, want 200 miss", resp.StatusCode, resp.Header.Get(cacheHeader))
	}
	want := normalizeBody(t, first)

	resp, second := postSolve(t, ts.Client(), ts.URL, body)
	if resp.Header.Get(cacheHeader) != "hit" {
		t.Fatalf("second solve: header %q, want hit", resp.Header.Get(cacheHeader))
	}
	if got := normalizeBody(t, second); got != want {
		t.Fatalf("cache hit drifted from the populating solve:\n got  %s\n want %s", got, want)
	}

	resp3, err := ts.Client().Post(ts.URL+"/solve?cache=bypass", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	third, _ := io.ReadAll(resp3.Body)
	resp3.Body.Close()
	if resp3.Header.Get(cacheHeader) != "bypass" {
		t.Fatalf("bypass solve: header %q, want bypass", resp3.Header.Get(cacheHeader))
	}
	if got := normalizeBody(t, third); got != want {
		t.Fatalf("bypass solve drifted from the cached one:\n got  %s\n want %s", got, want)
	}

	// A different seed is a different fingerprint: miss, not hit.
	resp, _ = postSolve(t, ts.Client(), ts.URL, solveBody(t, "greedy", in, map[string]any{"seed": 99}))
	if resp.Header.Get(cacheHeader) != "miss" {
		t.Fatalf("new seed: header %q, want miss", resp.Header.Get(cacheHeader))
	}

	if hits := varsInt(t, ts, "sectord.cache.hits"); hits != 1 {
		t.Errorf("sectord.cache.hits = %d, want 1", hits)
	}
	if misses := varsInt(t, ts, "sectord.cache.misses"); misses != 2 {
		t.Errorf("sectord.cache.misses = %d, want 2", misses)
	}
}

func TestSolveCacheDisabled(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{CacheBytes: -1}).Handler())
	defer ts.Close()
	body := solveBody(t, "greedy", sectorsInstance(), nil)
	for i := 0; i < 2; i++ {
		resp, _ := postSolve(t, ts.Client(), ts.URL, body)
		if resp.Header.Get(cacheHeader) != cacheOff {
			t.Fatalf("request %d on cacheless server: header %q, want %q", i, resp.Header.Get(cacheHeader), cacheOff)
		}
	}
}

func TestSolveInvalidCacheParam(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{}).Handler())
	defer ts.Close()
	resp, err := ts.Client().Post(ts.URL+"/solve?cache=nonsense", "application/json",
		bytes.NewReader(solveBody(t, "greedy", sectorsInstance(), nil)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("cache=nonsense: status %d, want 400", resp.StatusCode)
	}
}

// TestSolveCacheSingleflight100Goroutines is the concurrency acceptance
// test: 100 goroutines post the identical instance while the solver is
// parked, so every request is in flight at once. Exactly one underlying
// solve may run; the 99 others must collapse onto it and all 100 responses
// must be byte-identical (modulo elapsed_ms). Run under -race this also
// exercises the cache's locking end to end.
func TestSolveCacheSingleflight100Goroutines(t *testing.T) {
	const clients = 100
	var calls atomic.Int64
	release := make(chan struct{})
	core.Register("test-count-cached", func(ctx context.Context, in *model.Instance, opt core.Options) (model.Solution, error) {
		calls.Add(1)
		select {
		case <-release:
		case <-ctx.Done():
			return model.Solution{}, ctx.Err()
		}
		return model.Solution{
			Assignment: model.NewAssignment(in.N(), in.M()),
			Algorithm:  "test-count-cached",
		}, nil
	})
	defer core.Unregister("test-count-cached")

	// Every request must hold an inflight slot simultaneously — no shedding.
	ts := httptest.NewServer(NewServer(Config{MaxInflight: 2 * clients}).Handler())
	defer ts.Close()
	client := ts.Client()
	client.Transport.(*http.Transport).MaxIdleConnsPerHost = clients
	body := solveBody(t, "test-count-cached", sectorsInstance(), nil)

	type reply struct {
		status int
		header string
		body   string
	}
	replies := make([]reply, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := client.Post(ts.URL+"/solve", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			raw, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Errorf("goroutine %d: read body: %v", i, err)
				return
			}
			replies[i] = reply{resp.StatusCode, resp.Header.Get(cacheHeader), string(raw)}
		}(i)
	}

	// Hold the leader until the collapsed counter shows every follower
	// parked on its flight — then the collapse is a proven fact, not a race
	// the test got lucky on.
	deadline := time.Now().Add(30 * time.Second)
	for varsInt(t, ts, "sectord.cache.collapsed") < clients-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d followers collapsed before the deadline",
				varsInt(t, ts, "sectord.cache.collapsed"), clients-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("underlying solver ran %d times for %d identical requests, want exactly 1", got, clients)
	}
	headers := map[string]int{}
	var canonical string
	for i, r := range replies {
		if r.status != http.StatusOK {
			t.Fatalf("goroutine %d: status %d, body %s", i, r.status, r.body)
		}
		headers[r.header]++
		norm := normalizeBody(t, []byte(r.body))
		if canonical == "" {
			canonical = norm
		} else if norm != canonical {
			t.Fatalf("goroutine %d response differs:\n got  %s\n want %s", i, norm, canonical)
		}
	}
	if headers["miss"] != 1 || headers["collapsed"] != clients-1 {
		t.Fatalf("cache headers %v, want 1 miss and %d collapsed", headers, clients-1)
	}

	// The flight's solution was stored: a late request is a plain hit.
	resp, late := postSolve(t, client, ts.URL, body)
	if resp.Header.Get(cacheHeader) != "hit" {
		t.Fatalf("post-flight request: header %q, want hit", resp.Header.Get(cacheHeader))
	}
	if got := normalizeBody(t, late); got != canonical {
		t.Fatalf("post-flight hit drifted:\n got  %s\n want %s", got, canonical)
	}
}

func batchBody(t *testing.T, solver string, instances []any, extra map[string]any) []byte {
	t.Helper()
	req := map[string]any{"solver": solver, "format_version": 1, "instances": instances}
	for k, v := range extra {
		req[k] = v
	}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func postBatch(t *testing.T, client *http.Client, url, query string, body []byte) (*http.Response, batchResponse, []byte) {
	t.Helper()
	resp, err := client.Post(url+"/solve/batch"+query, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var br batchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &br); err != nil {
			t.Fatalf("batch response not JSON: %v\n%s", err, raw)
		}
	}
	return resp, br, raw
}

// TestSolveBatchDuplicatesShareOneSolve: a batch holding the same instance
// three times plus one distinct instance costs exactly two underlying
// solves — the duplicates hit or collapse onto the first.
func TestSolveBatchDuplicatesShareOneSolve(t *testing.T) {
	srv := NewServer(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	dup := sectorsInstance()
	other := disjointInstance()
	other.Variant = model.Sectors // keep one solver happy with both shapes
	body := batchBody(t, "greedy", []any{dup, dup, dup, other}, nil)

	resp, br, raw := postBatch(t, ts.Client(), ts.URL, "", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d, body %s", resp.StatusCode, raw)
	}
	if br.Count != 4 || br.OK != 4 || br.Failed != 0 {
		t.Fatalf("batch counts %+v, want 4 ok", br)
	}
	cacheKinds := map[string]int{}
	var dupBodies []string
	for _, item := range br.Items {
		if item.SolveResponse == nil {
			t.Fatalf("item %d has no solution: %+v", item.Index, item)
		}
		cacheKinds[item.Cache]++
		if item.Index < 3 {
			b, err := json.Marshal(struct {
				Profit      int64     `json:"profit"`
				Orientation []float64 `json:"orientation"`
				Owner       []int     `json:"owner"`
			}{item.Profit, item.Orientation, item.Owner})
			if err != nil {
				t.Fatal(err)
			}
			dupBodies = append(dupBodies, string(b))
		}
	}
	for i, b := range dupBodies {
		if b != dupBodies[0] {
			t.Fatalf("duplicate item %d got a different solution:\n %s\n vs %s", i, b, dupBodies[0])
		}
	}
	// The three duplicates resolve to one miss plus two hit/collapsed; the
	// distinct instance is its own miss.
	if cacheKinds["miss"] != 2 || cacheKinds["hit"]+cacheKinds["collapsed"] != 2 {
		t.Fatalf("cache outcomes %v, want 2 misses and 2 hit/collapsed", cacheKinds)
	}
	if got := resp.Header.Get(cacheHeader); got == "" {
		t.Error("batch response missing the cache summary header")
	}
	if misses := varsInt(t, ts, "sectord.cache.misses"); misses != 2 {
		t.Errorf("sectord.cache.misses = %d, want 2 for 4 items", misses)
	}
	if got := varsInt(t, ts, "sectord.batches"); got != 1 {
		t.Errorf("sectord.batches = %d, want 1", got)
	}
	if got := varsInt(t, ts, "sectord.batch_items"); got != 4 {
		t.Errorf("sectord.batch_items = %d, want 4", got)
	}
}

// TestSolveBatchBypass: ?cache=bypass solves every item fresh and labels
// it so; nothing lands in the cache.
func TestSolveBatchBypass(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{}).Handler())
	defer ts.Close()
	in := sectorsInstance()
	body := batchBody(t, "greedy", []any{in, in}, nil)
	resp, br, raw := postBatch(t, ts.Client(), ts.URL, "?cache=bypass", body)
	if resp.StatusCode != http.StatusOK || br.OK != 2 {
		t.Fatalf("bypass batch: status %d, body %s", resp.StatusCode, raw)
	}
	for _, item := range br.Items {
		if item.Cache != cacheBypass {
			t.Errorf("item %d cache %q, want %q", item.Index, item.Cache, cacheBypass)
		}
	}
	if got := resp.Header.Get(cacheHeader); got != "hits=0,misses=0,collapsed=0,bypass=2" {
		t.Errorf("summary header %q", got)
	}
	if entries := varsInt(t, ts, "sectord.cache.entries"); entries != 0 {
		t.Errorf("bypassed batch populated the cache: %d entries", entries)
	}
}

// TestSolveBatchPerItemErrors: invalid and missing instances fail in their
// own slots while the rest of the batch solves — the batch itself is 200.
func TestSolveBatchPerItemErrors(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{}).Handler())
	defer ts.Close()
	bad := map[string]any{
		"variant":   0,
		"customers": []any{map[string]any{"id": 0, "theta": 0, "r": -2, "demand": 1}},
		"antennas":  []any{},
	}
	body := batchBody(t, "greedy", []any{sectorsInstance(), nil, bad}, nil)
	resp, br, raw := postBatch(t, ts.Client(), ts.URL, "", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch with bad items: status %d, body %s", resp.StatusCode, raw)
	}
	if br.OK != 1 || br.Failed != 2 {
		t.Fatalf("ok=%d failed=%d, want 1 ok and 2 failed", br.OK, br.Failed)
	}
	if br.Items[0].Error != "" || br.Items[0].SolveResponse == nil {
		t.Errorf("valid item did not solve: %+v", br.Items[0])
	}
	if br.Items[1].Error == "" || br.Items[2].Error == "" {
		t.Errorf("bad items carry no error: %+v", br.Items[1:])
	}
	if br.Items[1].SolveResponse != nil || br.Items[2].SolveResponse != nil {
		t.Errorf("failed items carry a solution")
	}
}

func TestSolveBatchBadRequests(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{}).Handler())
	defer ts.Close()
	tooMany := make([]any, maxBatchItems+1)
	for i := range tooMany {
		tooMany[i] = sectorsInstance()
	}
	cases := []struct {
		name string
		body []byte
	}{
		{"invalid JSON", []byte("{nope")},
		{"no instances", batchBody(t, "greedy", []any{}, nil)},
		{"bad format version", batchBody(t, "greedy", []any{sectorsInstance()}, map[string]any{"format_version": 9})},
		{"unknown solver", batchBody(t, "no-such", []any{sectorsInstance()}, nil)},
		{"oversized batch", batchBody(t, "greedy", tooMany, nil)},
	}
	for _, tc := range cases {
		resp, _, raw := postBatch(t, ts.Client(), ts.URL, "", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (want 400), body %.200s", tc.name, resp.StatusCode, raw)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/solve/batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /solve/batch: status %d, want 405", resp.StatusCode)
	}
}

// TestSolveBatchItemDeadline: a per-item timeout fails the slow items
// without failing the batch.
func TestSolveBatchItemDeadline(t *testing.T) {
	started := make(chan struct{}, 2)
	registerBlockingSolver("test-batch-park", started, nil)
	defer core.Unregister("test-batch-park")
	ts := httptest.NewServer(NewServer(Config{}).Handler())
	defer ts.Close()
	in := sectorsInstance()
	body := batchBody(t, "test-batch-park", []any{in, in}, map[string]any{"timeout_ms": 50})
	resp, br, raw := postBatch(t, ts.Client(), ts.URL, "", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, raw)
	}
	if br.Failed != 2 || br.OK != 0 {
		t.Fatalf("ok=%d failed=%d, want both items failed by deadline", br.OK, br.Failed)
	}
	for _, item := range br.Items {
		if item.Error == "" {
			t.Errorf("timed-out item %d has no error", item.Index)
		}
	}
}
