// Package sectorclient is a retrying HTTP client for the sectord daemon.
//
// Retries follow the daemon's durability contract: only idempotent routes
// are retried, and one route table, idempotent, decides which those are.
// /solve and /solve/batch are pure functions of their bodies and DELETE
// /session is naturally idempotent, so they retry freely on transient
// failures (network errors, 429/502/503/504). POST /session/{id}/delta is
// retried only when its body carries an idempotency key — ApplyDelta
// always attaches one — so a retry that lands after a crash-recovered
// daemon already applied the delta is answered from current state instead
// of being applied twice. POST /session is never retried: without a
// server-side creation key, a retry after an ambiguous failure could leak
// a duplicate session (and its journal); callers see the error and decide.
//
// There is one retry loop, Do. It returns the daemon's final answer
// verbatim, which is what cmd/sectorproxy forwards. The typed calls (Solve,
// CreateSession, ApplyDelta, Close) decode over it: a 2xx body becomes a
// result and any other answer becomes an error.
//
// Backoff between attempts is capped exponential with equal jitter, and a
// 429/503 Retry-After header, when present, sets the floor.
package sectorclient

import (
	"bytes"
	"context"
	cryptorand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sectorpack/internal/model"
)

// Options tunes a Client. The zero value is usable: defaults are filled in
// by New.
type Options struct {
	// HTTPClient issues the requests; nil means a fresh http.Client with
	// Timeout as its overall per-attempt timeout.
	HTTPClient *http.Client
	// Timeout bounds each individual attempt (not the whole retry loop —
	// bound that with the context). Zero means 30s. Ignored when
	// HTTPClient is set.
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

	idemPrefix string
	idemSeq    atomic.Int64
}

// New returns a client for the daemon at baseURL (e.g.
// "http://localhost:8377").
func New(baseURL string, opt Options) *Client {
	if opt.Timeout <= 0 {
		opt.Timeout = 30 * time.Second
	}
	if opt.HTTPClient == nil {
		opt.HTTPClient = &http.Client{Timeout: opt.Timeout}
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
	var pfx [6]byte
	cryptorand.Read(pfx[:])
	return &Client{
		base:       strings.TrimRight(baseURL, "/"),
		hc:         opt.HTTPClient,
		opt:        opt,
		rnd:        rnd,
		idemPrefix: hex.EncodeToString(pfx[:]),
	}
}

// APIError is a non-2xx daemon reply that was not retried away.
type APIError struct {
	Status  int
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("sectord: %d %s: %s", e.Status, http.StatusText(e.Status), e.Message)
}

// ErrNotFound wraps 404s (unknown session ID — e.g. one that did not
// survive a daemon restart) so callers can recreate instead of failing.
var ErrNotFound = errors.New("not found")

// SolveResult is the daemon's answer to /solve and both session routes.
type SolveResult struct {
	Solver      string    `json:"solver"`
	Algorithm   string    `json:"algorithm"`
	Profit      int64     `json:"profit"`
	UpperBound  float64   `json:"upper_bound"`
	Orientation []float64 `json:"orientation"`
	Owner       []int     `json:"owner"`
	ElapsedMS   float64   `json:"elapsed_ms"`

	Degraded       bool   `json:"degraded"`
	SolverUsed     string `json:"solver_used"`
	FallbackReason string `json:"fallback_reason"`

	// CacheStatus echoes the X-Sectord-Cache header (hit/miss/...), empty
	// when the daemon did not set it.
	CacheStatus string `json:"-"`
	// Attempts is how many HTTP attempts this answer took (1 = no retry).
	Attempts int `json:"-"`
}

// Assignment rebuilds the model form of the answer, ready for a local
// Assignment.Check against the instance the caller sent.
func (r *SolveResult) Assignment() *model.Assignment {
	return &model.Assignment{Orientation: r.Orientation, Owner: r.Owner}
}

// SolveOptions are the per-request solve knobs.
type SolveOptions struct {
	Seed          *int64
	TimeoutMillis int64
	// AllowDegraded opts into the daemon's hedged fallback (?degraded=allow):
	// a solve that times out or fails answers with the fallback solver's
	// result, marked Degraded, instead of an error.
	AllowDegraded bool
}

// Solve solves the instance remotely. Retries on transient failures.
func (c *Client) Solve(ctx context.Context, solver string, in *model.Instance, opt SolveOptions) (*SolveResult, error) {
	body, err := solveBody(solver, in, opt)
	if err != nil {
		return nil, err
	}
	path := "/solve"
	if opt.AllowDegraded {
		path += "?degraded=allow"
	}
	return c.solve(ctx, http.MethodPost, path, body)
}

// solveBody is the request envelope of /solve and POST /session.
func solveBody(solver string, in *model.Instance, opt SolveOptions) ([]byte, error) {
	return json.Marshal(map[string]any{
		"format_version": 1, "solver": solver, "seed": opt.Seed,
		"timeout_ms": opt.TimeoutMillis, "instance": in,
	})
}

// Session is a handle on a daemon-side delta-solve session.
type Session struct {
	c  *Client
	ID string
}

// CreateSession opens a delta-solve session. The route is not idempotent,
// so it is never retried: an ambiguous network failure surfaces as an
// error rather than a potential duplicate session.
func (c *Client) CreateSession(ctx context.Context, solver string, in *model.Instance, opt SolveOptions) (*Session, *SolveResult, error) {
	body, err := solveBody(solver, in, opt)
	if err != nil {
		return nil, nil, err
	}
	resp, err := c.call(ctx, http.MethodPost, "/session", body)
	if err != nil {
		return nil, nil, err
	}
	var rep struct {
		SessionID string `json:"session_id"`
		SolveResult
	}
	if err := json.Unmarshal(resp.Body, &rep); err != nil {
		return nil, nil, fmt.Errorf("sectord: bad session response: %w", err)
	}
	rep.SolveResult.Attempts = resp.Attempts
	return &Session{c: c, ID: rep.SessionID}, &rep.SolveResult, nil
}

// ApplyDelta applies one delta to the session. Every call stamps a fresh
// idempotency key; retries of the same call reuse that key, so a delta is
// applied at most once even when a retry crosses a daemon restart.
func (s *Session) ApplyDelta(ctx context.Context, d model.Delta) (*SolveResult, error) {
	key := fmt.Sprintf("%s-%d", s.c.idemPrefix, s.c.idemSeq.Add(1))
	body, err := json.Marshal(map[string]any{
		"format_version": 1, "idempotency_key": key, "delta": d,
	})
	if err != nil {
		return nil, err
	}
	return s.c.solve(ctx, http.MethodPost, "/session/"+s.ID+"/delta", body)
}

// Close deletes the session on the daemon. Idempotent: a 404 (the retry of
// a delete that already landed, or a session the daemon dropped) is
// success.
func (s *Session) Close(ctx context.Context) error {
	_, err := s.c.call(ctx, http.MethodDelete, "/session/"+s.ID, nil)
	if errors.Is(err, ErrNotFound) {
		return nil
	}
	return err
}

// RawResponse is the terminal outcome of Do: the daemon's status, headers,
// and body, plus how many HTTP attempts it took. Unlike the typed methods,
// non-2xx statuses land here instead of becoming errors.
type RawResponse struct {
	Status   int
	Header   http.Header
	Body     []byte
	Attempts int
}

// Do is the routing hook for proxies: it issues one logical request with
// the client's retry policy and returns the daemon's response verbatim —
// including non-2xx statuses — so shed (429), degraded, and error
// semantics can be passed through unchanged. When the route table says
// the request is idempotent (see idempotent), transient statuses
// (429/502/503/504) and network failures are retried with backoff and the
// Retry-After floor; any other request gets exactly one attempt. Once the
// budget is exhausted the LAST transient response is returned, not an
// error, so the caller can forward the daemon's honest Retry-After hint.
// Only network-level failures (no HTTP response at all) return an error;
// the caller decides whether to fail over to another backend.
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

// call is Do for the typed methods: it returns the 2xx answer and turns
// anything else into an error — 404 into ErrNotFound, another terminal
// status into *APIError, a transient status Do gave up on into "giving up
// after N attempts", and a cancellation during the retries into an error
// wrapping ctx.Err().
func (c *Client) call(ctx context.Context, method, path string, body []byte) (*RawResponse, error) {
	resp, err := c.Do(ctx, method, path, body)
	if err != nil {
		return nil, err
	}
	if resp.Status/100 == 2 {
		return resp, nil
	}
	apiErr := &APIError{Status: resp.Status, Message: errorMessage(resp.Body)}
	switch {
	case resp.Status == http.StatusNotFound:
		return nil, fmt.Errorf("%w: %w", ErrNotFound, apiErr)
	case !transientStatus(resp.Status):
		return nil, apiErr
	case ctx.Err() != nil:
		return nil, fmt.Errorf("%w (last attempt: %w)", ctx.Err(), apiErr)
	default:
		return nil, fmt.Errorf("sectord: giving up after %d attempts: %w", resp.Attempts, apiErr)
	}
}

// solve runs call and decodes the solve-shaped answer.
func (c *Client) solve(ctx context.Context, method, path string, body []byte) (*SolveResult, error) {
	resp, err := c.call(ctx, method, path, body)
	if err != nil {
		return nil, err
	}
	var rep SolveResult
	if err := json.Unmarshal(resp.Body, &rep); err != nil {
		return nil, fmt.Errorf("sectord: bad solve response: %w", err)
	}
	rep.CacheStatus = resp.Header.Get("X-Sectord-Cache")
	rep.Attempts = resp.Attempts
	return &rep, nil
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

func errorMessage(raw []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(raw, &e) == nil && e.Error != "" {
		return e.Error
	}
	msg := strings.TrimSpace(string(raw))
	if len(msg) > 200 {
		msg = msg[:200]
	}
	return msg
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
