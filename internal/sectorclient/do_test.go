// Tests for the raw Do routing hook and the backoff/Retry-After plumbing
// under it (ISSUE 9 satellites): seeded jitter must be deterministic so
// fleet tests can pin delays, both RFC 9110 Retry-After forms must floor
// the backoff, and cancellation mid-retry must return the daemon's last
// honest answer instead of losing it.
package sectorclient

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestBackoffSeededJitterDeterministic(t *testing.T) {
	mk := func(seed int64) *Client {
		return New("http://localhost:0", Options{
			BaseDelay: 50 * time.Millisecond,
			MaxDelay:  time.Second,
			Rand:      rand.New(rand.NewSource(seed)),
		})
	}
	a, b := mk(42), mk(42)
	for i := 0; i < 8; i++ {
		da, db := a.backoff(i, 0), b.backoff(i, 0)
		if da != db {
			t.Fatalf("retry %d: same seed diverged: %v vs %v", i, da, db)
		}
		// Equal jitter: the delay lives in [window/2, window].
		window := 50 * time.Millisecond << uint(i)
		if window <= 0 || window > time.Second {
			window = time.Second
		}
		if da < window/2 || da > window {
			t.Errorf("retry %d: delay %v outside [%v, %v]", i, da, window/2, window)
		}
	}
	c := mk(7)
	diverged := false
	for i := 0; i < 8; i++ {
		if c.backoff(i, 0) != a.backoff(i, 0) {
			diverged = true
		}
	}
	if !diverged {
		t.Error("different seeds produced identical 8-delay sequences")
	}
}

func TestBackoffFloorsOnRetryAfter(t *testing.T) {
	c := New("http://localhost:0", Options{
		BaseDelay: time.Millisecond,
		MaxDelay:  2 * time.Millisecond,
		Rand:      rand.New(rand.NewSource(1)),
	})
	floor := 250 * time.Millisecond
	if d := c.backoff(0, floor); d < floor {
		t.Errorf("backoff %v below the Retry-After floor %v", d, floor)
	}
}

func TestParseRetryAfterBothForms(t *testing.T) {
	if got := parseRetryAfter("3"); got != 3*time.Second {
		t.Errorf("delta-seconds: got %v, want 3s", got)
	}
	future := time.Now().Add(5 * time.Second).UTC().Format(http.TimeFormat)
	if got := parseRetryAfter(future); got <= 0 || got > 5*time.Second {
		t.Errorf("HTTP-date 5s ahead: got %v, want in (0, 5s]", got)
	}
	for _, v := range []string{"", "-2", "soon", time.Now().Add(-time.Minute).UTC().Format(http.TimeFormat)} {
		if got := parseRetryAfter(v); got != 0 {
			t.Errorf("parseRetryAfter(%q) = %v, want 0 (no floor)", v, got)
		}
	}
}

func TestDoReturnsNon2xxVerbatim(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Sectord-Shard", "s1")
		http.Error(w, `{"error":"bad instance"}`, http.StatusBadRequest)
	}))
	defer ts.Close()
	c := New(ts.URL, Options{Rand: rand.New(rand.NewSource(1))})
	resp, err := c.Do(context.Background(), http.MethodPost, "/solve", []byte("{}"))
	if err != nil {
		t.Fatalf("Do returned error for a 400: %v (the hook must pass statuses through)", err)
	}
	if resp.Status != http.StatusBadRequest || resp.Attempts != 1 {
		t.Errorf("status %d attempts %d, want 400 after exactly 1 attempt", resp.Status, resp.Attempts)
	}
	if got := resp.Header.Get("X-Sectord-Shard"); got != "s1" {
		t.Errorf("shard header %q did not survive the hook", got)
	}
}

func TestDoRetriesTransientThenSucceeds(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			http.Error(w, "shed", http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`{"profit":7}`))
	}))
	defer ts.Close()
	c := New(ts.URL, Options{
		BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond,
		Rand: rand.New(rand.NewSource(1)),
	})
	resp, err := c.Do(context.Background(), http.MethodPost, "/solve", []byte("{}"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != http.StatusOK || resp.Attempts != 3 {
		t.Errorf("status %d attempts %d, want 200 on attempt 3", resp.Status, resp.Attempts)
	}
}

func TestDoExhaustionReturnsLastShedResponse(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "0")
		http.Error(w, `{"error":"shed"}`, http.StatusTooManyRequests)
	}))
	defer ts.Close()
	c := New(ts.URL, Options{
		MaxRetries: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond,
		Rand: rand.New(rand.NewSource(1)),
	})
	resp, err := c.Do(context.Background(), http.MethodPost, "/solve", []byte("{}"))
	if err != nil {
		t.Fatalf("exhausted retries must return the last 429, not an error: %v", err)
	}
	if resp.Status != http.StatusTooManyRequests || resp.Attempts != 3 {
		t.Errorf("status %d attempts %d, want 429 after 3 attempts", resp.Status, resp.Attempts)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("the daemon's Retry-After hint was dropped; proxies need it to pass shed semantics through")
	}
}

func TestDoCancelMidBackoffReturnsLastResponse(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// A long Retry-After floors the backoff, so the context is always
		// cancelled during the sleep, never mid-request.
		w.Header().Set("Retry-After", "30")
		http.Error(w, "shed", http.StatusTooManyRequests)
	}))
	defer ts.Close()
	c := New(ts.URL, Options{Rand: rand.New(rand.NewSource(1))})
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	resp, err := c.Do(ctx, http.MethodPost, "/solve", []byte("{}"))
	if err != nil {
		t.Fatalf("cancel mid-backoff must return the last response, got error: %v", err)
	}
	if resp.Status != http.StatusTooManyRequests {
		t.Errorf("status %d, want the shed 429 observed before cancellation", resp.Status)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("Do slept %v after cancellation; the 30s floor must not be served out", elapsed)
	}
}

func TestDoNetworkFailureIsAnError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	ts.Close() // nothing listening: every attempt is a transport failure
	c := New(ts.URL, Options{
		MaxRetries: 1, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond,
		Rand: rand.New(rand.NewSource(1)),
	})
	resp, err := c.Do(context.Background(), http.MethodPost, "/solve", []byte("{}"))
	if err == nil {
		t.Fatalf("transport failure returned a response (%+v); proxies key failover on the error", resp)
	}
}

func TestIdempotentRouteTable(t *testing.T) {
	keyed := []byte(`{"format_version":1,"idempotency_key":"k1","delta":{}}`)
	for _, tc := range []struct {
		method, path string
		body         []byte
		want         bool
	}{
		{http.MethodPost, "/solve", []byte("{}"), true},
		{http.MethodPost, "/solve?degraded=allow", []byte("{}"), true},
		{http.MethodPost, "/solve/batch", []byte("{}"), true},
		{http.MethodPost, "/solve/batch?cache=bypass", []byte("{}"), true},
		{http.MethodDelete, "/session/s1", nil, true},
		{http.MethodGet, "/debug/vars", nil, true},
		{http.MethodHead, "/debug/vars", nil, true},
		{http.MethodPost, "/session/s1/delta", keyed, true},
		{http.MethodPost, "/session/s1/delta?x=1", keyed, true},
		{http.MethodPost, "/session/s1/delta", []byte(`{"idempotency_key":"","delta":{}}`), false},
		{http.MethodPost, "/session/s1/delta", []byte(`{"delta":{}}`), false},
		{http.MethodPost, "/session/s1/delta", []byte(`{"idempotency_key":`), false},
		{http.MethodPost, "/session/s1/delta", nil, false},
		{http.MethodPost, "/session", []byte("{}"), false},
		{http.MethodPost, "/session?degraded=allow", []byte("{}"), false},
		{http.MethodGet, "/healthz", nil, false},
		{http.MethodHead, "/healthz", nil, false},
		{http.MethodPost, "/session//delta", keyed, false},
		{http.MethodPost, "/session/a/b/delta", keyed, false},
		{http.MethodDelete, "/session/", nil, false},
		{http.MethodDelete, "/session/s1/delta", nil, false},
		{http.MethodPut, "/solve", []byte("{}"), false},
		{http.MethodPost, "/unknown", []byte("{}"), false},
	} {
		if got := idempotent(tc.method, tc.path, tc.body); got != tc.want {
			t.Errorf("idempotent(%s %s, %q) = %v, want %v", tc.method, tc.path, tc.body, got, tc.want)
		}
	}
}
