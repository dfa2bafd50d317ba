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

// TestCreateSessionIsNeverRetried: POST /session is not idempotent (two
// attempts make two sessions), so a transient answer gets exactly one
// attempt and is returned as it came.
func TestCreateSessionIsNeverRetried(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"session table full"}`, http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	c := New(ts.URL, Options{
		MaxRetries: 4, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond,
		Rand: rand.New(rand.NewSource(7)),
	})
	resp, err := c.Do(context.Background(), http.MethodPost, "/session", []byte("{}"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != http.StatusServiceUnavailable || resp.Attempts != 1 {
		t.Errorf("status %d attempts %d, want the 503 after exactly 1 attempt", resp.Status, resp.Attempts)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("non-idempotent POST /session was retried: %d calls", got)
	}
}

func TestBackoffShape(t *testing.T) {
	opt := Options{
		BaseDelay: 100 * time.Millisecond,
		MaxDelay:  300 * time.Millisecond,
		Rand:      rand.New(rand.NewSource(1)),
	}
	c := New("http://unused", opt)
	for i := 0; i < 8; i++ {
		window := opt.BaseDelay << uint(i)
		if window <= 0 || window > opt.MaxDelay {
			window = opt.MaxDelay
		}
		d := c.backoff(i, 0)
		if d < window/2 || d > window {
			t.Fatalf("backoff(%d) = %v outside equal-jitter window [%v, %v]", i, d, window/2, window)
		}
	}
	// Retry-After sets the floor.
	if d := c.backoff(0, 2*time.Second); d != 2*time.Second {
		t.Fatalf("backoff ignored Retry-After floor: %v", d)
	}
}
