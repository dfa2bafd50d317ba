// Package sectorclient is the retrying HTTP transport to one sectord
// daemon: cmd/sectorproxy forwards through it and sectorpack -server
// solves through it.
//
// There is one retry loop, Do, and it returns the daemon's final answer
// verbatim. Retries follow the daemon's durability contract: only
// idempotent routes are retried, and one route table, idempotent, decides
// which those are. /solve and /solve/batch are pure functions of their
// bodies and DELETE /session is naturally idempotent, so they retry
// freely on transient failures (network errors, 429/502/503/504). POST
// /session/{id}/delta is retried only when its body carries an
// idempotency key, so a retry that lands after a crash-recovered daemon
// already applied the delta is answered from current state instead of
// being applied twice. POST /session is never retried: without a
// server-side creation key, a retry after an ambiguous failure could leak
// a duplicate session (and its journal); callers see the answer and
// decide.
//
// Backoff between attempts is capped exponential with equal jitter, and a
// 429/503 Retry-After header, when present, sets the floor.
package sectorclient

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Options tunes a Client. The zero value is usable: defaults are filled in
// by New.
type Options struct {
	// Timeout bounds each individual attempt (not the whole retry loop —
	// bound that with the context). Zero means 30s.
	Timeout time.Duration
	// MaxRetries is how many times an idempotent request is re-sent after
	// the first attempt. Zero means 4; negative disables retries.
	MaxRetries int
	// BaseDelay seeds the exponential backoff (delay before retry i is
	// roughly BaseDelay·2ⁱ, jittered). Zero means 100ms.
	BaseDelay time.Duration
	// MaxDelay caps the backoff. Zero means 3s.
	MaxDelay time.Duration
	// Rand supplies backoff jitter; nil means a time-seeded source. Tests
	// inject a fixed seed for deterministic delays.
	Rand *rand.Rand
}

// Client talks to one sectord base URL. It is safe for concurrent use.
type Client struct {
	base string
	hc   *http.Client
	opt  Options

	mu  sync.Mutex // guards rnd
	rnd *rand.Rand
}

// New returns a client for the daemon at baseURL (e.g.
// "http://localhost:8377").
func New(baseURL string, opt Options) *Client {
	if opt.Timeout <= 0 {
		opt.Timeout = 30 * time.Second
	}
	if opt.MaxRetries == 0 {
		opt.MaxRetries = 4
	}
	if opt.BaseDelay <= 0 {
		opt.BaseDelay = 100 * time.Millisecond
	}
	if opt.MaxDelay <= 0 {
		opt.MaxDelay = 3 * time.Second
	}
	rnd := opt.Rand
	if rnd == nil {
		rnd = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	return &Client{
		base: strings.TrimRight(baseURL, "/"),
		hc:   &http.Client{Timeout: opt.Timeout},
		opt:  opt,
		rnd:  rnd,
	}
}

// RawResponse is the terminal outcome of Do: the daemon's status, headers,
// and body, plus how many HTTP attempts it took. Non-2xx statuses land
// here too; they are the daemon's answer, not an error.
type RawResponse struct {
	Status   int
	Header   http.Header
	Body     []byte
	Attempts int
}

// Do issues one logical request with the client's retry policy and
// returns the daemon's response verbatim — including non-2xx statuses — so
// shed (429), degraded, and error semantics pass through unchanged. When
// the route table says the request is idempotent (see idempotent),
// transient statuses (429/502/503/504) and network failures are retried
// with backoff and the Retry-After floor; any other request gets exactly
// one attempt. Once the budget is exhausted, or ctx is done during a
// backoff, the LAST transient response is returned, not an error, so the
// caller can forward the daemon's honest Retry-After hint. Only
// network-level failures (no HTTP response at all) return an error; the
// caller decides whether to fail over to another backend.
func (c *Client) Do(ctx context.Context, method, path string, body []byte) (*RawResponse, error) {
	var lastErr error
	var last *RawResponse
	maxAttempts := 1
	if c.opt.MaxRetries > 0 && idempotent(method, path, body) {
		maxAttempts = 1 + c.opt.MaxRetries
	}
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			var floor time.Duration
			if last != nil {
				floor = parseRetryAfter(last.Header.Get("Retry-After"))
			}
			select {
			case <-time.After(c.backoff(attempt-1, floor)):
			case <-ctx.Done():
				if last != nil {
					return last, nil
				}
				return nil, fmt.Errorf("%w (last attempt: %w)", ctx.Err(), lastErr)
			}
		}
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
		if err != nil {
			return nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return nil, err
			}
			lastErr, last = err, nil
			continue
		}
		raw, rerr := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
		resp.Body.Close()
		if rerr != nil {
			lastErr, last = rerr, nil
			continue
		}
		out := &RawResponse{Status: resp.StatusCode, Header: resp.Header, Body: raw, Attempts: attempt + 1}
		if !transientStatus(resp.StatusCode) {
			return out, nil
		}
		last = out
	}
	if last != nil {
		return last, nil
	}
	return nil, fmt.Errorf("sectord: giving up after %d attempts: %w", maxAttempts, lastErr)
}

// idempotent is the retry route table: it reports whether re-sending the
// request after a transient failure cannot apply it twice. The query
// string (degraded=allow, cache=bypass, ...) does not change the answer.
// GET /healthz is the exception among reads: the proxy's re-probe of an
// ejected backend is one attempt, and its next tick is the retry.
func idempotent(method, path string, body []byte) bool {
	if i := strings.IndexByte(path, '?'); i >= 0 {
		path = path[:i]
	}
	id, isSession := strings.CutPrefix(path, "/session/")
	switch method {
	case http.MethodGet, http.MethodHead:
		return path != "/healthz"
	case http.MethodDelete:
		return isSession && validID(id)
	case http.MethodPost:
		if path == "/solve" || path == "/solve/batch" {
			return true
		}
		id, isDelta := strings.CutSuffix(id, "/delta")
		if !isSession || !isDelta || !validID(id) {
			return false
		}
		// A delta is safe to re-send only under an idempotency key: the
		// daemon then answers a replay from current state.
		var probe struct {
			IdempotencyKey string `json:"idempotency_key"`
		}
		return json.Unmarshal(body, &probe) == nil && probe.IdempotencyKey != ""
	}
	return false
}

// validID reports whether a session ID path segment is non-empty and a
// single segment.
func validID(id string) bool { return id != "" && !strings.Contains(id, "/") }

// transientStatus reports whether a status is worth retrying: shed load,
// gateway hiccups, and the daemon's own "try again" answers.
func transientStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// parseRetryAfter accepts both RFC 9110 forms of the header: delta-seconds
// ("3") and an HTTP-date ("Mon, 02 Jan 2006 15:04:05 GMT"), the latter
// relative to the local clock. Unparseable or past values mean no floor.
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(v); err == nil {
		if d := time.Until(at); d > 0 {
			return d
		}
	}
	return 0
}

// backoff computes the sleep before retry i (0-based): capped exponential
// with equal jitter — half the window is deterministic, half uniform — and
// never below the server's Retry-After hint.
func (c *Client) backoff(i int, floor time.Duration) time.Duration {
	d := c.opt.BaseDelay << uint(i)
	if d <= 0 || d > c.opt.MaxDelay {
		d = c.opt.MaxDelay
	}
	c.mu.Lock()
	jitter := time.Duration(c.rnd.Int63n(int64(d)/2 + 1))
	c.mu.Unlock()
	d = d/2 + jitter
	if d < floor {
		d = floor
	}
	return d
}
