package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"sectorpack/internal/gen"
	"sectorpack/internal/model"
	"sectorpack/internal/sectorclient"
)

// TestFleetRetryPolicy pins how many times the proxy sends each route to a
// backend that sheds every request (503, Retry-After: 0) under a retry
// budget of 2: idempotent routes arrive 1+2 times, while session creation,
// a delta without an idempotency key, and the ejected-backend /healthz
// probe arrive exactly once.
func TestFleetRetryPolicy(t *testing.T) {
	var mu sync.Mutex
	var arrivals []string // "METHOD path?query", in arrival order
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		arrivals = append(arrivals, r.Method+" "+r.URL.RequestURI())
		mu.Unlock()
		w.Header().Set("Retry-After", "0")
		http.Error(w, `{"error":"shed"}`, http.StatusServiceUnavailable)
	}))
	defer backend.Close()

	p := NewProxy(ProxyConfig{
		Backends: []string{backend.URL},
		Client: sectorclient.Options{
			MaxRetries: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond,
			Timeout: 10 * time.Second,
		},
	})
	proxy := httptest.NewServer(p.Handler())
	defer proxy.Close()
	// Deltas and deletes need a pin; creation never makes one here because
	// the backend never answers 200.
	p.sessions.Store("s1", p.backends[0])

	in, err := gen.Generate(gen.Config{Family: gen.Uniform, Seed: 7, N: 12, M: 2})
	if err != nil {
		t.Fatal(err)
	}
	keyless := []byte(`{"format_version":1,"delta":{"set_demand":[{"customer":1,"demand":7}]}}`)

	// take returns and clears the arrivals recorded since the last call.
	take := func() []string {
		mu.Lock()
		defer mu.Unlock()
		out := arrivals
		arrivals = nil
		return out
	}
	for _, tc := range []struct {
		name, method, path string
		body               []byte
		want               int
	}{
		{"solve", http.MethodPost, "/solve?degraded=allow", solveBodyFor(t, "greedy", in), 3},
		{"batch", http.MethodPost, "/solve/batch?cache=bypass", batchBodyFor(t, "greedy", []*model.Instance{in}), 3},
		{"session create", http.MethodPost, "/session", sessionCreateBody(t, in), 1},
		{"delta with key", http.MethodPost, "/session/s1/delta", deltaBody(t, "k1", sessionDeltas()[0]), 3},
		{"delta without key", http.MethodPost, "/session/s1/delta", keyless, 1},
		{"delete", http.MethodDelete, "/session/s1", nil, 3},
	} {
		req, err := http.NewRequest(tc.method, proxy.URL+tc.path, bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s: status %d, want the backend's 503 passed through", tc.name, resp.StatusCode)
		}
		got := take()
		if len(got) != tc.want {
			t.Errorf("%s: backend saw %d arrivals %v, want %d", tc.name, len(got), got, tc.want)
		}
		for _, a := range got {
			if a != tc.method+" "+tc.path {
				t.Errorf("%s: arrival %q, want %q", tc.name, a, tc.method+" "+tc.path)
			}
		}
	}

	p.backends[0].down.Store(true)
	p.probeEjected()
	if got := take(); len(got) != 1 || got[0] != "GET /healthz" {
		t.Errorf("ejected-backend probe: arrivals %v, want exactly one GET /healthz", got)
	}
	if !p.backends[0].down.Load() {
		t.Error("a 503 probe readmitted the backend")
	}
}
