// Command sectorproxy is the fleet front for sectord: a thin HTTP router
// that spreads /solve, /solve/batch, and session traffic across N sectord
// backends so one process's concurrency cap stops being the fleet's.
//
// Routing is a consistent-hash ring keyed by the PR-4 canonical cache
// fingerprint (internal/cache.RoutingKey), so every repeat of a solve —
// including permuted duplicates — lands on the shard whose LRU already
// holds the answer and whose singleflight collapses concurrent copies.
// A batch routes whole, by its raw bytes, to one shard: the proxy makes no
// per-item decisions, so the daemon's envelope checks (format version,
// item count, solver) and its per-item answers reach the client as the
// daemon gave them. Sessions are created on the shard their instance
// hashes to and pinned by session ID thereafter (delta-solve state is
// shard-local and cannot move).
//
// The proxy is deliberately semantics-free: request bodies are forwarded
// byte-for-byte (the routing decode happens on a private copy), and the
// backend's status, body, and headers — including shed 429s with their
// honest Retry-After, degraded answers, and cache provenance — pass
// through unchanged. The fleet differential suite pins that a proxied
// answer is identical to a direct one.
//
// Transport is internal/sectorclient's raw Do hook, so capped-exponential
// backoff, Retry-After floors, and which routes may be re-sent come from
// one place; every backend request goes through one helper, send, which keeps
// the backend's request, failure and routed counts. Health is passive:
// consecutive transport-level failures eject a backend from the ring (its
// keyspace arcs slide to the next healthy backend; everyone else's stay
// put), and a background re-probe of /healthz readmits it with its exact
// old arcs back.
package main

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sectorpack/internal/cache"
	"sectorpack/internal/core"
	"sectorpack/internal/exact"
	"sectorpack/internal/metric"
	"sectorpack/internal/model"
	"sectorpack/internal/sectorclient"
)

// ProxyConfig tunes the proxy.
type ProxyConfig struct {
	// Backends are the sectord base URLs the ring is built over.
	Backends []string
	// VNodes is the virtual-node count per backend; zero means
	// defaultVNodes.
	VNodes int
	// EjectAfter is how many consecutive transport-level failures eject a
	// backend until the next successful re-probe. Zero means 3.
	EjectAfter int
	// ReprobeInterval is the /healthz probe cadence for ejected backends.
	// Zero means 2s.
	ReprobeInterval time.Duration
	// Seed mirrors the backends' -seed default so the routing fingerprint
	// of a request that omits its seed matches the cache key the backend
	// computes. A mismatch costs cache locality, never correctness.
	Seed int64
	// MaxTuples mirrors the backends' -max-tuples for the same reason.
	MaxTuples int64
	// Client tunes the per-backend sectorclient (retry budget, backoff,
	// per-attempt timeout).
	Client sectorclient.Options
	// DrainTimeout bounds graceful shutdown; zero means 5s.
	DrainTimeout time.Duration
	// Logger receives one structured record per routed request. Nil
	// discards logs.
	Logger *slog.Logger
}

// DefaultEjectAfter is the consecutive-failure ejection threshold.
const DefaultEjectAfter = 3

// DefaultReprobeInterval is the ejected-backend probe cadence.
const DefaultReprobeInterval = 2 * time.Second

// maxProxyRequestBytes mirrors the daemon's request-body bound.
const maxProxyRequestBytes = 32 << 20

// shardHeader names the backend that served a response. Backends set it
// themselves when started with -shard; the proxy fills it with the
// backend base URL otherwise, so per-shard attribution always works.
const shardHeader = "X-Sectord-Shard"

// backend is one sectord behind the ring.
type backend struct {
	name   string // base URL, also the ring identity
	client *sectorclient.Client

	consecFails atomic.Int32
	down        atomic.Bool

	requests  metric.Counter // requests routed here (incl. failover arrivals)
	failures  metric.Counter // transport-level failures observed
	ejections metric.Counter // times this backend was ejected
}

// Proxy is the routing front. Build with NewProxy, then Start to launch
// the re-probe loop (Close stops it).
type Proxy struct {
	cfg      ProxyConfig
	backends []*backend
	ring     *ring
	mux      *http.ServeMux
	logger   *slog.Logger

	// sessions pins session IDs to the backend holding their state.
	sessions sync.Map // string -> *backend

	probeStop chan struct{}
	probeDone chan struct{}
	probeOnce sync.Once

	requests  metric.Counter // requests received
	routed    metric.Counter // requests that reached some backend
	failovers metric.Counter // ring walks past the owner after transport failure
	noBackend metric.Counter // requests refused because no backend was healthy
	pinMisses metric.Counter // session requests with no pinned backend

	vars expvar.Map // what /debug/vars serves; filled by publishVars
}

// NewProxy builds the routing front over the backend URLs.
func NewProxy(cfg ProxyConfig) *Proxy {
	if cfg.EjectAfter <= 0 {
		cfg.EjectAfter = DefaultEjectAfter
	}
	if cfg.ReprobeInterval <= 0 {
		cfg.ReprobeInterval = DefaultReprobeInterval
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 5 * time.Second
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	p := &Proxy{
		cfg:       cfg,
		logger:    logger,
		mux:       http.NewServeMux(),
		probeStop: make(chan struct{}),
		probeDone: make(chan struct{}),
	}
	names := make([]string, len(cfg.Backends))
	for i, raw := range cfg.Backends {
		name := strings.TrimRight(raw, "/")
		names[i] = name
		p.backends = append(p.backends, &backend{
			name:   name,
			client: sectorclient.New(name, cfg.Client),
		})
	}
	p.ring = newRing(names, cfg.VNodes)
	p.publishVars()
	p.mux.HandleFunc("POST /solve", p.handleSolve("solve", p.solveRoutingKey))
	p.mux.HandleFunc("POST /solve/batch", p.handleSolve("batch", rawRoutingKey))
	p.mux.HandleFunc("POST /session", p.handleSessionCreate)
	p.mux.HandleFunc("POST /session/{id}/delta", p.handleSessionDelta)
	p.mux.HandleFunc("DELETE /session/{id}", p.handleSessionDelete)
	p.mux.HandleFunc("/healthz", p.handleHealthz)
	p.mux.HandleFunc("/debug/vars", p.handleVars)
	return p
}

// Handler returns the proxy's HTTP handler tree.
func (p *Proxy) Handler() http.Handler { return p.mux }

// Start launches the background re-probe loop for ejected backends.
func (p *Proxy) Start() {
	go func() {
		defer close(p.probeDone)
		t := time.NewTicker(p.cfg.ReprobeInterval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				p.probeEjected()
			case <-p.probeStop:
				return
			}
		}
	}()
}

// Close stops the re-probe loop.
func (p *Proxy) Close() {
	p.probeOnce.Do(func() { close(p.probeStop) })
	<-p.probeDone
}

// Serve accepts connections until ctx is cancelled, then drains.
func (p *Proxy) Serve(ctx context.Context, ln net.Listener) error {
	p.Start()
	defer p.Close()
	srv := &http.Server{Handler: p.mux}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		dctx, cancel := context.WithTimeout(context.Background(), p.cfg.DrainTimeout)
		defer cancel()
		if err := srv.Shutdown(dctx); err != nil {
			srv.Close()
			return err
		}
		<-errc
		return nil
	}
}

// probeEjected GETs /healthz on every ejected backend and readmits the
// ones that answer 200. The probe client is the backend's own (its
// per-attempt timeout applies); sectorclient never retries a /healthz
// probe, so the next tick is its retry.
func (p *Proxy) probeEjected() {
	for _, b := range p.backends {
		if !b.down.Load() {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), p.cfg.ReprobeInterval)
		resp, err := b.client.Do(ctx, http.MethodGet, "/healthz", nil)
		cancel()
		if err == nil && resp.Status == http.StatusOK {
			b.consecFails.Store(0)
			b.down.Store(false)
			p.logger.Info("backend readmitted", slog.String("backend", b.name))
		}
	}
}

// markFailure records a transport-level failure and ejects the backend at
// the threshold.
func (p *Proxy) markFailure(b *backend, err error) {
	b.failures.Add(1)
	if int(b.consecFails.Add(1)) >= p.cfg.EjectAfter && !b.down.Swap(true) {
		b.ejections.Add(1)
		p.logger.Warn("backend ejected",
			slog.String("backend", b.name),
			slog.String("error", err.Error()))
	}
}

func (p *Proxy) markSuccess(b *backend) {
	b.consecFails.Store(0)
}

func (p *Proxy) healthy(i int) bool { return !p.backends[i].down.Load() }

// pickBackends returns the key's backends in ring preference order,
// healthy ones only.
func (p *Proxy) pickBackends(key string) []*backend {
	order := p.ring.pick(key, p.healthy, nil)
	out := make([]*backend, len(order))
	for i, bi := range order {
		out[i] = p.backends[bi]
	}
	return out
}

func writeProxyError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// writeNoBackend is the answer when the ring has nobody healthy for a
// request: an honest 503 with the re-probe cadence as the retry hint.
func (p *Proxy) writeNoBackend(w http.ResponseWriter) {
	p.noBackend.Add(1)
	secs := int(p.cfg.ReprobeInterval / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeProxyError(w, http.StatusServiceUnavailable, "no healthy backend")
}

// relay logs the routed request and writes the backend's response to the
// client unchanged, filling the shard header with the backend name when
// the backend did not.
func (p *Proxy) relay(w http.ResponseWriter, route string, b *backend, resp *sectorclient.RawResponse, start time.Time) {
	p.logger.Info("routed",
		slog.String("route", route),
		slog.String("backend", b.name),
		slog.Int("status", resp.Status),
		slog.Float64("duration_ms", float64(time.Since(start))/float64(time.Millisecond)))
	for _, h := range []string{"Content-Type", "Retry-After", "X-Sectord-Cache", "X-Sectord-Idempotent", shardHeader} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	if w.Header().Get(shardHeader) == "" {
		w.Header().Set(shardHeader, b.name)
	}
	w.WriteHeader(resp.Status)
	w.Write(resp.Body)
}

// readBody slurps the (bounded) request body.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxProxyRequestBytes))
	if err != nil {
		writeProxyError(w, http.StatusBadRequest, "read request: "+err.Error())
		return nil, false
	}
	return body, true
}

// routeOptions is the Options value the routing fingerprint is computed
// with; it mirrors what the backend will use so the routing key equals the
// backend's cache key.
func (p *Proxy) routeOptions(seed *int64) core.Options {
	opt := core.Options{Seed: p.cfg.Seed, ExactLimits: exact.Limits{MaxTuples: p.cfg.MaxTuples}}
	if seed != nil {
		opt.Seed = *seed
	}
	return opt
}

// solveRoutingKey computes the consistent-hash key for one /solve-shaped
// body. Bodies the proxy cannot interpret (bad JSON, invalid instance)
// still route — deterministically, by raw bytes — so the owning backend
// can answer with its own error semantics and the proxy stays
// semantics-free.
func (p *Proxy) solveRoutingKey(body []byte) string {
	req, ok := model.ParseSolveRequest(body)
	if (!ok && json.Unmarshal(body, &req) != nil) || req.Instance == nil {
		return rawRoutingKey(body)
	}
	name := req.Solver
	if name == "" {
		name = "auto"
	}
	req.Instance.Normalize()
	if err := req.Instance.Validate(); err != nil {
		return rawRoutingKey(body)
	}
	key, err := cache.RoutingKey(req.Instance, p.routeOptions(req.Seed), name)
	if err != nil {
		return rawRoutingKey(body)
	}
	return key
}

// rawRoutingKey routes a body by its bytes: the key of every body the
// proxy does not fingerprint, a /solve/batch body among them.
func rawRoutingKey(body []byte) string { return "raw:" + string(body) }

// send issues one request to backend b through its sectorclient and keeps
// the backend's books: it counts the request, then either marks a
// transport-level failure — unless the caller's ctx is done, since a
// client that hung up says nothing about the backend's health — or marks
// success and counts the request as routed. Any HTTP response, whatever
// its status, is a success here: it is the backend's honest answer.
func (p *Proxy) send(ctx context.Context, b *backend, method, path string, body []byte) (*sectorclient.RawResponse, error) {
	b.requests.Add(1)
	resp, err := b.client.Do(ctx, method, path, body)
	if err != nil {
		if ctx.Err() == nil {
			p.markFailure(b, err)
		}
		return nil, err
	}
	p.markSuccess(b)
	p.routed.Add(1)
	return resp, nil
}

// forward sends the body to the key's backends in ring order: the owner
// first, then — on transport-level failure only — each failover candidate.
// HTTP responses of any status are terminal (they are the backend's honest
// answer and pass through); sectorclient's route table decides whether
// each backend also gets transient-status retries.
func (p *Proxy) forward(ctx context.Context, key, method, path string, body []byte) (*backend, *sectorclient.RawResponse, error) {
	candidates := p.pickBackends(key)
	if len(candidates) == 0 {
		return nil, nil, errNoBackend
	}
	var lastErr error
	for i, b := range candidates {
		if i > 0 {
			p.failovers.Add(1)
		}
		resp, err := p.send(ctx, b, method, path, body)
		if err == nil {
			return b, resp, nil
		}
		if ctx.Err() != nil {
			return b, nil, err
		}
		lastErr = err
	}
	return nil, nil, fmt.Errorf("all %d candidate backends failed: %w", len(candidates), lastErr)
}

var errNoBackend = fmt.Errorf("no healthy backend")

// pathWithQuery re-attaches the client's query string (degraded=allow,
// cache=bypass, ...) so those per-request semantics pass through.
func pathWithQuery(r *http.Request, path string) string {
	if r.URL.RawQuery != "" {
		return path + "?" + r.URL.RawQuery
	}
	return path
}

// handleSolve serves /solve and /solve/batch: it sends the client's body
// unchanged to the ring owner of key(body), failing over on transport
// errors, and relays the backend's answer.
func (p *Proxy) handleSolve(route string, key func([]byte) string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		p.requests.Add(1)
		start := time.Now()
		body, ok := readBody(w, r)
		if !ok {
			return
		}
		b, resp, err := p.forward(r.Context(), key(body), http.MethodPost, pathWithQuery(r, r.URL.Path), body)
		if err != nil {
			p.writeForwardError(w, r.URL.Path, err)
			return
		}
		p.relay(w, route, b, resp, start)
	}
}

func (p *Proxy) writeForwardError(w http.ResponseWriter, route string, err error) {
	if err == errNoBackend {
		p.writeNoBackend(w)
		return
	}
	p.logger.Warn("forward failed", slog.String("route", route), slog.String("error", err.Error()))
	writeProxyError(w, http.StatusBadGateway, "backend unreachable: "+err.Error())
}

func (p *Proxy) handleHealthz(w http.ResponseWriter, r *http.Request) {
	for i := range p.backends {
		if p.healthy(i) {
			fmt.Fprintln(w, "ok")
			return
		}
	}
	writeProxyError(w, http.StatusServiceUnavailable, "no healthy backend")
}

// publishVars fills p.vars (unpublished, same rationale as the daemon's).
func (p *Proxy) publishVars() {
	p.vars.Set("sectorproxy.requests", &p.requests)
	p.vars.Set("sectorproxy.routed", &p.routed)
	p.vars.Set("sectorproxy.failovers", &p.failovers)
	p.vars.Set("sectorproxy.no_backend", &p.noBackend)
	p.vars.Set("sectorproxy.session_pin_misses", &p.pinMisses)
	p.vars.Set("sectorproxy.sessions_pinned", expvar.Func(func() any {
		pinned := 0
		p.sessions.Range(func(_, _ any) bool { pinned++; return true })
		return pinned
	}))
	for _, b := range p.backends {
		p.vars.Set("sectorproxy.backend."+b.name, expvar.Func(func() any {
			state := "up"
			if b.down.Load() {
				state = "down"
			}
			return map[string]any{
				"state":                state,
				"requests":             b.requests.Value(),
				"failures":             b.failures.Value(),
				"ejections":            b.ejections.Value(),
				"consecutive_failures": b.consecFails.Load(),
			}
		}))
	}
}

// handleVars serves p.vars in the /debug/vars wire format: one JSON
// object, keys sorted.
func (p *Proxy) handleVars(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, p.vars.String())
}
