// Package daemon is the sectord HTTP solve daemon: POST an instance
// envelope to /solve and get the solution back as JSON. It is the
// repository's serving layer — every solver in the core registry is
// reachable by name, each request runs under a deadline derived from the
// request context, and load beyond the configured concurrency cap is shed
// with 429 instead of queued. cmd/sectord is the thin flag-parsing front;
// the package is importable so cmd/sectorproxy's fleet differential suite
// (and any embedder) can boot real in-process backends under the race
// detector.
//
// The pipeline is fail-soft: solver panics are isolated per request (500,
// daemon stays up), solver output is re-checked by the feasibility gate
// before it is served (invalid → 500, never an infeasible answer), and a
// request may opt into degraded mode with ?degraded=allow, where a timed
// out, panicking, erroring, or invalid primary solver falls back to the
// hedged greedy safety net (200 with "degraded": true) instead of 503.
//
// Repeated solves are served from a content-addressed cache: requests are
// fingerprinted over (instance, options, solver), identical concurrent
// requests collapse to one underlying solve (singleflight), and every hit
// is re-gated through the feasibility check before it is served. The
// X-Sectord-Cache response header reports hit/miss/collapsed/bypass, and
// ?cache=bypass opts a request out entirely. POST /solve/batch solves a
// whole envelope of instances on a bounded worker pool through the same
// cache, returning per-item results instead of failing the batch.
//
// Churning workloads use delta-solve sessions instead of repeated /solve
// round trips: POST /session opens a long-lived session (internal/session)
// around one instance, POST /session/{id}/delta applies a delta and returns
// the incremental re-solve, DELETE /session/{id} closes it. Sessions are
// capped, idle-evicted, and strictly cache-isolated — see sessions.go.
package daemon

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sectorpack/internal/cache"
	"sectorpack/internal/core"
	"sectorpack/internal/exact"
	"sectorpack/internal/faultfs"
	"sectorpack/internal/model"
)

// Config tunes the daemon.
type Config struct {
	// Timeout is the per-request solve deadline. Zero means no server-side
	// deadline (the client's context still applies).
	Timeout time.Duration
	// MaxInflight caps concurrent solves; requests beyond it get 429.
	// Zero means DefaultMaxInflight.
	MaxInflight int
	// Allowed restricts which solver names requests may use; empty allows
	// every registered solver.
	Allowed []string
	// Seed is the default Options.Seed when the request omits one.
	Seed int64
	// MaxTuples caps the exact solver's orientation-tuple budget per
	// request (Options.ExactLimits); zero keeps exact.DefaultMaxTuples.
	MaxTuples int64
	// Pprof mounts net/http/pprof under /debug/pprof/.
	Pprof bool
	// DrainTimeout bounds graceful shutdown; zero means 5s.
	DrainTimeout time.Duration
	// CacheBytes bounds the solve cache: zero means cache.DefaultMaxBytes,
	// negative disables caching entirely.
	CacheBytes int64
	// SessionMax caps live delta-solve sessions; creates beyond it get 429.
	// Zero means DefaultSessionMax.
	SessionMax int
	// SessionTTL evicts sessions idle longer than this (lazily, on the next
	// session request). Zero means DefaultSessionTTL.
	SessionTTL time.Duration
	// SnapshotPath persists the solve cache across restarts: Restore
	// warm-loads it, a background loop and the shutdown drain rewrite it
	// atomically. Empty disables snapshotting.
	SnapshotPath string
	// SnapshotInterval is the background snapshot cadence; zero means
	// DefaultSnapshotInterval.
	SnapshotInterval time.Duration
	// JournalDir enables per-session delta journaling (WAL): every session
	// gets an append-only journal under this directory, and Restore replays
	// surviving journals back into live sessions. Empty disables journaling.
	JournalDir string
	// JournalSyncEvery is the journal group-commit window: an fsync per
	// this many delta appends. Values <= 1 fsync every append (the
	// default); larger values trade at most n-1 acknowledged deltas of
	// crash-durability for throughput.
	JournalSyncEvery int
	// FS is the filesystem the persistence paths write through; nil means
	// the real filesystem (faultfs.OS). Tests inject fault-scripted
	// filesystems here.
	FS faultfs.FS
	// ShardName, when set, is stamped on every response as the
	// X-Sectord-Shard header and exported as sectord.shard, so a routing
	// proxy (cmd/sectorproxy) and the load harness (cmd/sectorload) can
	// attribute answers and cache hit ratios to the backend that served
	// them. Empty omits the header.
	ShardName string
	// Logger receives one structured record per /solve request (request
	// ID, solver, duration, outcome, degraded flag) plus panic reports.
	// Nil discards logs.
	Logger *slog.Logger
}

// DefaultMaxInflight is the concurrency cap when Config leaves it zero.
const DefaultMaxInflight = 4

// maxBatchItems caps the /solve/batch envelope size.
const maxBatchItems = 256

// maxRequestBytes bounds the request body read (instances are small; this
// guards the decoder, not memory accounting).
const maxRequestBytes = 32 << 20

// Server is the sectord HTTP service. Metrics are per-Server (unpublished
// expvar vars, served by the /debug/vars handler below) so tests can build
// many Servers in one process without tripping expvar's duplicate-publish
// panic.
type Server struct {
	cfg     Config
	sem     chan struct{}
	mux     *http.ServeMux
	handler http.Handler
	allowed map[string]bool
	logger  *slog.Logger
	cache   *cache.Cache // nil when caching is disabled
	fsys    faultfs.FS   // persistence filesystem seam (faultfs.OS in production)

	ridPrefix string        // random per-Server request-ID prefix
	reqSeq    atomic.Uint64 // request-ID sequence

	sessions *sessionStore // live delta-solve sessions (sessions.go)
	sessSeq  atomic.Uint64 // session-ID sequence

	sessCreated expvar.Int // monotonic: sessions opened via POST /session
	sessClosed  expvar.Int // monotonic: sessions closed via DELETE
	sessEvicted expvar.Int // monotonic: sessions reaped by the idle sweep
	sessDeltas  expvar.Int // monotonic: deltas applied across all sessions

	snapSaves         expvar.Int // monotonic: cache snapshots written (periodic + drain)
	snapSaveFailures  expvar.Int // monotonic: snapshot writes that failed
	snapLoadSkipped   expvar.Int // monotonic: snapshot entries rejected at warm-load
	snapLoadFailures  expvar.Int // monotonic: whole-snapshot loads rejected (bad header/version)
	sessRecovered     expvar.Int // monotonic: sessions rebuilt from journals at Restore
	sessRecoverFailed expvar.Int // monotonic: journals that could not be recovered
	journalFailures   expvar.Int // monotonic: journal create/append failures (session dropped)
	journalOrphans    expvar.Int // monotonic: journal removals that failed (file left on disk)
	idemReplays       expvar.Int // monotonic: deltas answered from the idempotency check

	requests      expvar.Int // monotonic: total /solve requests
	solved        expvar.Int // monotonic: completed successfully (incl. degraded)
	cancellations expvar.Int // monotonic: ended by deadline or client disconnect
	shed          expvar.Int // monotonic: rejected with 429
	failures      expvar.Int // monotonic: bad requests and solver errors
	panics        expvar.Int // monotonic: recovered solver/handler panics
	fallbacks     expvar.Int // monotonic: degraded responses served by the safety net
	hedgeWins     expvar.Int // monotonic: fallback already done when the primary failed
	invalid       expvar.Int // monotonic: solver outputs rejected by the post-solve gate
	batches       expvar.Int // monotonic: /solve/batch requests
	batchItems    expvar.Int // monotonic: instances received across all batches

	latencyMu sync.Mutex
	latency   map[string]*latencyHist // guarded by latencyMu (per-solver)
}

// NewServer builds a Server from the config.
func NewServer(cfg Config) *Server {
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = DefaultMaxInflight
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 5 * time.Second
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	var rid [4]byte
	if _, err := rand.Read(rid[:]); err != nil {
		copy(rid[:], "srvd") // crypto/rand never fails in practice
	}
	s := &Server{
		cfg:       cfg,
		sem:       make(chan struct{}, cfg.MaxInflight),
		mux:       http.NewServeMux(),
		logger:    logger,
		ridPrefix: hex.EncodeToString(rid[:]),
		latency:   map[string]*latencyHist{},
		sessions:  &sessionStore{m: map[string]*sessionEntry{}},
		fsys:      cfg.FS,
	}
	if s.fsys == nil {
		s.fsys = faultfs.OS
	}
	if cfg.CacheBytes >= 0 {
		s.cache = cache.New(cfg.CacheBytes)
	}
	if len(cfg.Allowed) > 0 {
		s.allowed = make(map[string]bool, len(cfg.Allowed))
		for _, name := range cfg.Allowed {
			s.allowed[name] = true
		}
	}
	s.mux.HandleFunc("/solve", s.handleSolve)
	s.mux.HandleFunc("/solve/batch", s.handleSolveBatch)
	s.mux.HandleFunc("POST /session", s.handleSessionCreate)
	s.mux.HandleFunc("POST /session/{id}/delta", s.handleSessionDelta)
	s.mux.HandleFunc("DELETE /session/{id}", s.handleSessionDelete)
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("/debug/vars", s.handleVars)
	if cfg.Pprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.handler = s.withRecovery(s.mux)
	if cfg.ShardName != "" {
		inner := s.handler
		s.handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set(shardHeader, cfg.ShardName)
			inner.ServeHTTP(w, r)
		})
	}
	return s
}

// shardHeader names the backend that served a response, for proxy and
// load-harness observability. The daemon sets it when Config.ShardName is
// set; sectorproxy falls back to the backend's base URL when it is not.
const shardHeader = "X-Sectord-Shard"

// Handler returns the HTTP handler tree (for httptest and for Serve),
// wrapped in the panic-recovery middleware.
func (s *Server) Handler() http.Handler { return s.handler }

// withRecovery converts a handler panic into a clean 500 instead of the
// net/http default (killed connection, no response). Registry solvers are
// already panic-isolated by core.Safe; this is the defense-in-depth layer
// for everything else on the request path.
func (s *Server) withRecovery(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				if rec == http.ErrAbortHandler {
					panic(rec)
				}
				s.panics.Add(1)
				s.logger.Error("panic in handler",
					slog.String("path", r.URL.Path),
					slog.String("panic", fmt.Sprint(rec)),
					slog.String("stack", string(debug.Stack())))
				// Best effort: if the handler already wrote a status this
				// header write is a no-op, but no handler writes before
				// its final response.
				writeJSON(w, http.StatusInternalServerError, errorResponse{Error: "internal server error"})
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// Serve accepts connections on ln until ctx is cancelled, then shuts down
// gracefully: in-flight solves keep running (their request contexts stay
// live) until done or until DrainTimeout passes. Once the drain completes
// (or fails), FlushState persists what the daemon has: the cache snapshot
// is rewritten and every open session journal is fsynced, so a SIGTERM
// loses nothing that was acknowledged.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	stopSnapshots := s.startSnapshotLoop()
	defer stopSnapshots()
	// In-flight request contexts are per-connection, not children of ctx:
	// graceful drain lets running solves finish. If the drain deadline
	// passes, Close tears the connections down, which cancels the request
	// contexts and aborts the solves.
	srv := &http.Server{Handler: s.handler}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		dctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
		defer cancel()
		if err := srv.Shutdown(dctx); err != nil {
			srv.Close()
			s.FlushState()
			return err
		}
		<-errc // http.ErrServerClosed
		s.FlushState()
		return nil
	}
}

// solveResponse is the /solve reply.
type solveResponse struct {
	Solver      string    `json:"solver"`
	Algorithm   string    `json:"algorithm"`
	Profit      int64     `json:"profit"`
	UpperBound  float64   `json:"upper_bound,omitempty"`
	Orientation []float64 `json:"orientation"`
	Owner       []int     `json:"owner"`
	ElapsedMS   float64   `json:"elapsed_ms"`

	// Degraded-mode provenance (?degraded=allow): set when the requested
	// solver failed and the hedged fallback answered instead.
	Degraded       bool   `json:"degraded,omitempty"`
	SolverUsed     string `json:"solver_used,omitempty"`
	FallbackReason string `json:"fallback_reason,omitempty"`
	FallbackDetail string `json:"fallback_detail,omitempty"`
	HedgeWin       bool   `json:"hedge_win,omitempty"`
}

// batchItemResponse is one item of the /solve/batch reply: either the
// embedded solve response (with cache provenance) or an error, never both.
type batchItemResponse struct {
	Index int    `json:"index"`
	Cache string `json:"cache,omitempty"`
	Error string `json:"error,omitempty"`
	*solveResponse
}

// batchResponse is the /solve/batch reply. The batch itself always
// succeeds with 200 once it decodes; per-item failures live in Items.
type batchResponse struct {
	Solver    string              `json:"solver"`
	Count     int                 `json:"count"`
	OK        int                 `json:"ok"`
	Failed    int                 `json:"failed"`
	Degraded  int                 `json:"degraded"`
	ElapsedMS float64             `json:"elapsed_ms"`
	Items     []batchItemResponse `json:"items"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(body)
}

func (s *Server) nextRequestID() string {
	return fmt.Sprintf("%s-%06d", s.ridPrefix, s.reqSeq.Add(1))
}

// solveOutcome is what one /solve request resolved to, for the structured
// log line and the per-request counters.
type solveOutcome struct {
	solver   string
	status   int
	outcome  string // ok, degraded, shed, bad_request, cancelled, panic, invalid, error
	degraded bool
	detail   string
	profit   int64
}

func (s *Server) logSolve(rid string, start time.Time, o *solveOutcome) {
	attrs := []slog.Attr{
		slog.String("request_id", rid),
		slog.String("solver", o.solver),
		slog.Float64("duration_ms", float64(time.Since(start))/float64(time.Millisecond)),
		slog.String("outcome", o.outcome),
		slog.Bool("degraded", o.degraded),
		slog.Int("status", o.status),
	}
	if o.outcome == "ok" || o.outcome == "degraded" {
		attrs = append(attrs, slog.Int64("profit", o.profit))
	}
	if o.detail != "" {
		attrs = append(attrs, slog.String("detail", o.detail))
	}
	level := slog.LevelInfo
	if o.status >= 500 && o.outcome != "degraded" && o.outcome != "cancelled" {
		level = slog.LevelWarn
	}
	s.logger.LogAttrs(context.Background(), level, "solve", attrs...)
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	rid := s.nextRequestID()
	start := time.Now()
	o := &solveOutcome{outcome: "error", status: http.StatusInternalServerError}
	defer func() { s.logSolve(rid, start, o) }()

	fail := func(status int, outcome, msg string) {
		o.status, o.outcome, o.detail = status, outcome, msg
		writeJSON(w, status, errorResponse{Error: msg})
	}

	if r.Method != http.MethodPost {
		s.failures.Add(1)
		w.Header().Set("Allow", http.MethodPost)
		fail(http.StatusMethodNotAllowed, "bad_request", "POST required")
		return
	}
	// Shed before reading the body: a saturated server should refuse work
	// as cheaply as possible.
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	default:
		s.shed.Add(1)
		s.setRetryAfter(w)
		fail(http.StatusTooManyRequests, "shed", "server at capacity")
		return
	}

	degradedAllowed, err := parseDegradedParam(r)
	if err != nil {
		s.failures.Add(1)
		fail(http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	bypass, err := parseCacheParam(r)
	if err != nil {
		s.failures.Add(1)
		fail(http.StatusBadRequest, "bad_request", err.Error())
		return
	}

	req, err := model.DecodeSolveRequest(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		s.failures.Add(1)
		fail(http.StatusBadRequest, "bad_request", "decode request: "+err.Error())
		return
	}
	if req.FormatVersion != 1 {
		s.failures.Add(1)
		fail(http.StatusBadRequest, "bad_request", fmt.Sprintf("unsupported format_version %d (want 1)", req.FormatVersion))
		return
	}
	if req.Instance == nil {
		s.failures.Add(1)
		fail(http.StatusBadRequest, "bad_request", "request missing instance")
		return
	}
	req.Instance.Normalize()
	if err := req.Instance.Validate(); err != nil {
		s.failures.Add(1)
		fail(http.StatusBadRequest, "bad_request", "invalid instance: "+err.Error())
		return
	}
	name, solver, err := s.resolveSolver(req.Solver)
	o.solver = name
	if err != nil {
		s.failures.Add(1)
		fail(http.StatusBadRequest, "bad_request", err.Error())
		return
	}

	ctx := r.Context()
	if timeout := s.solveTimeout(req.TimeoutMillis); timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	opt := s.solveOptions(req.Seed)
	var sol model.Solution
	var cacheOutcome string
	if degradedAllowed {
		// The hedged pipeline races the cache-fronted requested solver
		// against the greedy safety net; both legs are panic-isolated and
		// gated, so the answer (primary or fallback) is always feasible.
		// The fallback leg never touches the cache, so a degraded answer
		// is always reported as a bypass.
		var pmu sync.Mutex
		pout := cacheBypass
		primary := func(ctx context.Context, in *model.Instance, o core.Options) (model.Solution, error) {
			psol, out, perr := s.solveThroughCache(ctx, name, solver, in, o, bypass)
			pmu.Lock()
			pout = out
			pmu.Unlock()
			return psol, perr
		}
		sol, err = core.SolveHedged(ctx, req.Instance, primary, core.HedgeOptions{
			Options:     opt,
			PrimaryName: name,
		})
		cacheOutcome = cacheBypass
		if err == nil && !sol.Degraded {
			pmu.Lock()
			cacheOutcome = pout
			pmu.Unlock()
		}
	} else {
		sol, cacheOutcome, err = s.solveThroughCache(ctx, name, solver, req.Instance, opt, bypass)
	}
	elapsed := time.Since(start)
	if err != nil {
		var pe *core.PanicError
		var ie *core.InvalidSolutionError
		switch {
		case errors.As(err, &pe):
			s.panics.Add(1)
			s.logger.Error("solver panic",
				slog.String("request_id", rid),
				slog.String("solver", pe.Solver),
				slog.String("panic", fmt.Sprint(pe.Value)),
				slog.String("stack", string(pe.Stack)))
			fail(http.StatusInternalServerError, "panic", "solve failed: "+pe.Error())
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			s.cancellations.Add(1)
			fail(http.StatusServiceUnavailable, "cancelled", "solve aborted: "+err.Error())
		case errors.As(err, &ie):
			s.invalid.Add(1)
			fail(http.StatusInternalServerError, "invalid", "solve failed: "+ie.Error())
		default:
			s.failures.Add(1)
			fail(http.StatusBadRequest, "error", "solve failed: "+err.Error())
		}
		return
	}
	if sol.Degraded {
		s.fallbacks.Add(1)
		if sol.FallbackReason == core.FallbackPanic {
			s.panics.Add(1)
		}
		if sol.HedgeWin {
			s.hedgeWins.Add(1)
		}
	}
	s.solved.Add(1)
	s.observeLatency(name, elapsed)
	o.status, o.profit = http.StatusOK, sol.Profit
	o.outcome, o.degraded, o.detail = "ok", sol.Degraded, sol.FallbackDetail
	if sol.Degraded {
		o.outcome = "degraded"
	}
	w.Header().Set(cacheHeader, cacheOutcome)
	writeJSON(w, http.StatusOK, newSolveResponse(name, sol, elapsed))
}

// cacheHeader reports how the cache treated a request: hit, miss,
// collapsed (waited on an identical in-flight solve), bypass (?cache=bypass
// or a degraded answer), or off (caching disabled).
const cacheHeader = "X-Sectord-Cache"

const (
	cacheBypass = "bypass"
	cacheOff    = "off"
)

func newSolveResponse(name string, sol model.Solution, elapsed time.Duration) *solveResponse {
	return &solveResponse{
		Solver:         name,
		Algorithm:      sol.Algorithm,
		Profit:         sol.Profit,
		UpperBound:     sol.UpperBound,
		Orientation:    sol.Assignment.Orientation,
		Owner:          sol.Assignment.Owner,
		ElapsedMS:      float64(elapsed) / float64(time.Millisecond),
		Degraded:       sol.Degraded,
		SolverUsed:     sol.SolverUsed,
		FallbackReason: sol.FallbackReason,
		FallbackDetail: sol.FallbackDetail,
		HedgeWin:       sol.HedgeWin,
	}
}

func parseDegradedParam(r *http.Request) (bool, error) {
	switch v := r.URL.Query().Get("degraded"); v {
	case "", "deny":
		return false, nil
	case "allow":
		return true, nil
	default:
		return false, fmt.Errorf("invalid degraded=%q (want allow or deny)", v)
	}
}

func parseCacheParam(r *http.Request) (bool, error) {
	switch v := r.URL.Query().Get("cache"); v {
	case "", "use":
		return false, nil
	case "bypass":
		return true, nil
	default:
		return false, fmt.Errorf("invalid cache=%q (want use or bypass)", v)
	}
}

// resolveSolver applies the empty-name default and the allowlist, then
// resolves through the registry (whose solvers are panic-isolated).
func (s *Server) resolveSolver(name string) (string, core.Solver, error) {
	if name == "" {
		name = "auto"
	}
	if s.allowed != nil && !s.allowed[name] {
		return name, nil, fmt.Errorf("solver %q not allowed (allowed: %v)", name, s.cfg.Allowed)
	}
	solver, err := core.Get(name)
	if err != nil {
		return name, nil, err
	}
	return name, solver, nil
}

// solveTimeout combines the server deadline with a request's timeout_ms:
// the request may tighten the server deadline, never loosen it.
func (s *Server) solveTimeout(requestMillis int64) time.Duration {
	timeout := s.cfg.Timeout
	if requestMillis > 0 {
		if t := time.Duration(requestMillis) * time.Millisecond; timeout <= 0 || t < timeout {
			timeout = t
		}
	}
	return timeout
}

func (s *Server) solveOptions(seed *int64) core.Options {
	opt := core.Options{Seed: s.cfg.Seed, ExactLimits: exact.Limits{MaxTuples: s.cfg.MaxTuples}}
	if seed != nil {
		opt.Seed = *seed
	}
	return opt
}

// solveFresh is one uncached solve behind the post-solve feasibility gate:
// a buggy solver's infeasible answer becomes an *InvalidSolutionError,
// never a served solution.
func (s *Server) solveFresh(ctx context.Context, name string, solver core.Solver, in *model.Instance, opt core.Options) (model.Solution, error) {
	sol, err := solver(ctx, in, opt)
	if err != nil {
		return model.Solution{}, err
	}
	if err := core.VerifySolution(name, in, sol); err != nil {
		return model.Solution{}, err
	}
	return sol, nil
}

// solveThroughCache routes one solve through the content-addressed cache:
// a fingerprint hit is re-verified against this request's instance before
// being served (a failure drops the entry and solves fresh), a miss solves
// and populates, and concurrent identical requests collapse onto one
// in-flight solve. The returned string is the cacheHeader value.
func (s *Server) solveThroughCache(ctx context.Context, name string, solver core.Solver, in *model.Instance, opt core.Options, bypass bool) (model.Solution, string, error) {
	if s.cache == nil {
		sol, err := s.solveFresh(ctx, name, solver, in, opt)
		return sol, cacheOff, err
	}
	if bypass {
		sol, err := s.solveFresh(ctx, name, solver, in, opt)
		return sol, cacheBypass, err
	}
	fp, err := cache.NewFingerprint(in, opt, name)
	if err != nil {
		sol, err := s.solveFresh(ctx, name, solver, in, opt)
		return sol, cacheBypass, err
	}
	sol, outcome, err := s.cache.GetOrSolve(ctx, fp, func(ctx context.Context) (model.Solution, error) {
		return s.solveFresh(ctx, name, solver, in, opt)
	})
	if err != nil {
		return model.Solution{}, outcome.String(), err
	}
	if outcome != cache.Miss {
		// Re-gate every cached answer against this request's instance. A
		// failure means a poisoned or colliding entry — count it, drop it,
		// and fall back to a fresh solve rather than serving it.
		if verr := core.VerifySolution(name, in, sol); verr != nil {
			s.invalid.Add(1)
			s.cache.Delete(fp.Key())
			s.logger.Warn("cache entry failed re-verification",
				slog.String("solver", name),
				slog.String("key", fp.Key()),
				slog.String("error", verr.Error()))
			fresh, ferr := s.solveFresh(ctx, name, solver, in, opt)
			return fresh, cache.Miss.String(), ferr
		}
	}
	return sol, outcome.String(), nil
}

// handleSolveBatch solves a whole envelope of instances through the cache
// on a bounded worker pool (core.SolveBatch). The batch is fail-soft:
// per-item failures (invalid instance, solver error, deadline) land in
// that item's slot while the rest proceed, and the response is 200 once
// the envelope decodes. The whole batch occupies one inflight-semaphore
// slot; its workers are bounded by the MaxInflight config so one batch
// cannot exceed the server's configured solve concurrency.
func (s *Server) handleSolveBatch(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	s.batches.Add(1)
	rid := s.nextRequestID()
	start := time.Now()
	o := &solveOutcome{outcome: "error", status: http.StatusInternalServerError}
	defer func() { s.logSolve(rid, start, o) }()

	fail := func(status int, outcome, msg string) {
		o.status, o.outcome, o.detail = status, outcome, msg
		writeJSON(w, status, errorResponse{Error: msg})
	}

	if r.Method != http.MethodPost {
		s.failures.Add(1)
		w.Header().Set("Allow", http.MethodPost)
		fail(http.StatusMethodNotAllowed, "bad_request", "POST required")
		return
	}
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	default:
		s.shed.Add(1)
		s.setRetryAfter(w)
		fail(http.StatusTooManyRequests, "shed", "server at capacity")
		return
	}

	degradedAllowed, err := parseDegradedParam(r)
	if err != nil {
		s.failures.Add(1)
		fail(http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	bypass, err := parseCacheParam(r)
	if err != nil {
		s.failures.Add(1)
		fail(http.StatusBadRequest, "bad_request", err.Error())
		return
	}

	req, err := model.DecodeBatchRequest(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		s.failures.Add(1)
		fail(http.StatusBadRequest, "bad_request", "decode request: "+err.Error())
		return
	}
	if req.FormatVersion != 1 {
		s.failures.Add(1)
		fail(http.StatusBadRequest, "bad_request", fmt.Sprintf("unsupported format_version %d (want 1)", req.FormatVersion))
		return
	}
	if len(req.Instances) == 0 {
		s.failures.Add(1)
		fail(http.StatusBadRequest, "bad_request", "batch has no instances")
		return
	}
	if len(req.Instances) > maxBatchItems {
		s.failures.Add(1)
		fail(http.StatusBadRequest, "bad_request", fmt.Sprintf("batch has %d instances (max %d)", len(req.Instances), maxBatchItems))
		return
	}
	s.batchItems.Add(int64(len(req.Instances)))
	name, solver, err := s.resolveSolver(req.Solver)
	o.solver = name
	if err != nil {
		s.failures.Add(1)
		fail(http.StatusBadRequest, "bad_request", err.Error())
		return
	}

	// Per-item validation is fail-soft: an invalid instance errors in its
	// own slot (the instance is nilled out so the pool skips it) instead
	// of rejecting the batch.
	itemErr := make([]string, len(req.Instances))
	for i, in := range req.Instances {
		if in == nil {
			itemErr[i] = "missing instance"
			continue
		}
		in.Normalize()
		if err := in.Validate(); err != nil {
			itemErr[i] = "invalid instance: " + err.Error()
			req.Instances[i] = nil
		}
	}

	opt := s.solveOptions(req.Seed)
	// outcomes records each item's cache provenance, keyed by its decoded
	// *Instance (unique per item even for identical payloads). Workers
	// store concurrently; reads happen after SolveBatch returns.
	var outcomes sync.Map
	cached := func(ctx context.Context, in *model.Instance, o core.Options) (model.Solution, error) {
		sol, out, err := s.solveThroughCache(ctx, name, solver, in, o, bypass)
		outcomes.Store(in, out)
		return sol, err
	}
	results := core.SolveBatch(r.Context(), req.Instances, cached, core.BatchOptions{
		Options:     opt,
		SolverName:  name,
		Workers:     s.cfg.MaxInflight,
		ItemTimeout: s.solveTimeout(req.TimeoutMillis),
		Hedged:      degradedAllowed,
	})

	resp := batchResponse{Solver: name, Count: len(req.Instances), Items: make([]batchItemResponse, len(req.Instances))}
	for i := range results {
		item := batchItemResponse{Index: i}
		switch {
		case itemErr[i] != "":
			s.failures.Add(1)
			item.Error = itemErr[i]
			resp.Failed++
		case results[i].Err != nil:
			s.countSolveError(rid, name, results[i].Err)
			item.Error = results[i].Err.Error()
			resp.Failed++
		default:
			sol := results[i].Solution
			item.solveResponse = newSolveResponse(name, sol, results[i].Elapsed)
			item.Cache = cacheBypass
			if !sol.Degraded {
				if out, ok := outcomes.Load(req.Instances[i]); ok {
					item.Cache = out.(string)
				}
			}
			s.solved.Add(1)
			s.observeLatency(name, results[i].Elapsed)
			resp.OK++
			if sol.Degraded {
				s.fallbacks.Add(1)
				if sol.HedgeWin {
					s.hedgeWins.Add(1)
				}
				resp.Degraded++
			}
		}
		resp.Items[i] = item
	}
	resp.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	o.status, o.outcome = http.StatusOK, "batch"
	o.detail = fmt.Sprintf("count=%d ok=%d failed=%d degraded=%d", resp.Count, resp.OK, resp.Failed, resp.Degraded)
	w.Header().Set(cacheHeader, s.batchCacheSummary(resp.Items))
	writeJSON(w, http.StatusOK, resp)
}

// countSolveError bumps the counter matching a per-item solve error and
// logs panics with their captured stacks.
func (s *Server) countSolveError(rid, name string, err error) {
	var pe *core.PanicError
	var ie *core.InvalidSolutionError
	switch {
	case errors.As(err, &pe):
		s.panics.Add(1)
		s.logger.Error("solver panic",
			slog.String("request_id", rid),
			slog.String("solver", pe.Solver),
			slog.String("panic", fmt.Sprint(pe.Value)),
			slog.String("stack", string(pe.Stack)))
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		s.cancellations.Add(1)
	case errors.As(err, &ie):
		s.invalid.Add(1)
	default:
		s.failures.Add(1)
	}
}

// batchCacheSummary renders the per-item cache outcomes as a compact
// header value, e.g. "hits=3,misses=1,collapsed=0,bypass=0".
func (s *Server) batchCacheSummary(items []batchItemResponse) string {
	counts := map[string]int{}
	for _, it := range items {
		if it.Cache != "" {
			counts[it.Cache]++
		}
	}
	return fmt.Sprintf("hits=%d,misses=%d,collapsed=%d,bypass=%d",
		counts["hit"], counts["miss"], counts["collapsed"], counts[cacheBypass]+counts[cacheOff])
}

// --- shed hint ---

// maxRetryAfterSeconds caps the shed hint so one latency spike cannot
// push clients away for minutes.
const maxRetryAfterSeconds = 30

// retryAfterSeconds derives an honest Retry-After hint for the 429 shed
// paths from current saturation. A shed means every inflight slot is
// busy; one slot frees on average after (mean solve latency / slot
// count), so that — rounded up to whole seconds and clamped to
// [1, maxRetryAfterSeconds] — is the earliest a retry has a real chance
// of being admitted. sectorclient's backoff and sectorproxy's retry
// budget both treat the value as a floor, so an inflated hint would
// stall honest clients and a deflated one would have them hammer a
// saturated daemon. With no latency history yet the hint is 1s.
func (s *Server) retryAfterSeconds() int {
	mean := s.meanLatencyMS()
	if mean <= 0 {
		return 1
	}
	secs := int(math.Ceil(mean / float64(cap(s.sem)) / 1000))
	if secs < 1 {
		return 1
	}
	if secs > maxRetryAfterSeconds {
		return maxRetryAfterSeconds
	}
	return secs
}

// setRetryAfter stamps the shed hint on a 429 response.
func (s *Server) setRetryAfter(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
}

// meanLatencyMS is the mean observed solve latency across all solvers,
// 0 when nothing has been observed yet.
func (s *Server) meanLatencyMS() float64 {
	s.latencyMu.Lock()
	hists := make([]*latencyHist, 0, len(s.latency))
	for _, h := range s.latency {
		hists = append(hists, h)
	}
	s.latencyMu.Unlock()
	var count int64
	var total float64
	for _, h := range hists {
		h.mu.Lock()
		count += h.count
		total += h.totalMS
		h.mu.Unlock()
	}
	if count == 0 {
		return 0
	}
	return total / float64(count)
}

// --- metrics ---

// latencyHist is a power-of-two millisecond histogram implementing
// expvar.Var.
type latencyHist struct {
	mu      sync.Mutex
	count   int64   // guarded by mu
	totalMS float64 // guarded by mu
	// buckets[i] counts solves with latency < 2^i ms; the last bucket is
	// the overflow.
	buckets [12]int64 // guarded by mu
}

func (h *latencyHist) observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	i := 0
	for i < len(h.buckets)-1 && ms >= float64(int64(1)<<i) {
		i++
	}
	h.mu.Lock()
	h.count++
	h.totalMS += ms
	h.buckets[i]++
	h.mu.Unlock()
}

// String renders the histogram as JSON, satisfying expvar.Var.
func (h *latencyHist) String() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	b := map[string]any{"count": h.count, "total_ms": h.totalMS}
	hist := map[string]int64{}
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		if i == len(h.buckets)-1 {
			hist[">="+strconv.Itoa(1<<(i-1))+"ms"] = c
		} else {
			hist["<"+strconv.Itoa(1<<i)+"ms"] = c
		}
	}
	b["buckets"] = hist
	out, _ := json.Marshal(b)
	return string(out)
}

func (s *Server) observeLatency(solver string, d time.Duration) {
	s.latencyMu.Lock()
	h, ok := s.latency[solver]
	if !ok {
		h = &latencyHist{}
		s.latency[solver] = h
	}
	s.latencyMu.Unlock()
	h.observe(d)
}

// shardVar renders the configured shard name as an expvar string.
type shardVar string

func (v shardVar) String() string {
	out, _ := json.Marshal(string(v))
	return string(out)
}

// handleVars serves this Server's expvar counters in the standard
// /debug/vars wire format. The vars are deliberately not published to the
// global expvar registry — expvar.Publish panics on duplicate names, which
// would fire the second time a test (or an embedding program) builds a
// Server.
func (s *Server) handleVars(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	vars := []struct {
		name string
		v    expvar.Var
	}{
		// Proxy-aware gauges: a router or load harness scraping
		// /debug/vars can see who this backend is and how close to
		// shedding it runs without parsing logs.
		{"sectord.shard", shardVar(s.cfg.ShardName)},
		{"sectord.inflight", expvar.Func(func() any { return len(s.sem) })},
		{"sectord.max_inflight", expvar.Func(func() any { return cap(s.sem) })},
		{"sectord.requests", &s.requests},
		{"sectord.solved", &s.solved},
		{"sectord.cancellations", &s.cancellations},
		{"sectord.shed", &s.shed},
		{"sectord.failures", &s.failures},
		{"sectord.panics", &s.panics},
		{"sectord.fallbacks", &s.fallbacks},
		{"sectord.hedge_wins", &s.hedgeWins},
		{"sectord.invalid", &s.invalid},
		{"sectord.batches", &s.batches},
		{"sectord.batch_items", &s.batchItems},
		{"sectord.snapshot.saves", &s.snapSaves},
		{"sectord.snapshot.save_failures", &s.snapSaveFailures},
		{"sectord.snapshot.load_skipped", &s.snapLoadSkipped},
		{"sectord.snapshot.load_failures", &s.snapLoadFailures},
		{"sectord.sessions.recovered", &s.sessRecovered},
		{"sectord.sessions.recover_failed", &s.sessRecoverFailed},
		{"sectord.sessions.journal_failures", &s.journalFailures},
		{"sectord.sessions.journal_orphans", &s.journalOrphans},
		{"sectord.sessions.idem_replays", &s.idemReplays},
	}
	vars = append(vars, s.sessionVars()...)
	if s.cache != nil {
		for _, nv := range s.cache.Vars() {
			vars = append(vars, struct {
				name string
				v    expvar.Var
			}{"sectord.cache." + nv.Name, nv.Var})
		}
	}
	fmt.Fprintf(w, "{\n")
	first := true
	for _, kv := range vars {
		if !first {
			fmt.Fprintf(w, ",\n")
		}
		first = false
		fmt.Fprintf(w, "%q: %s", kv.name, kv.v.String())
	}
	s.latencyMu.Lock()
	names := make([]string, 0, len(s.latency))
	for name := range s.latency {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, ",\n%q: %s", "sectord.latency."+name, s.latency[name].String())
	}
	s.latencyMu.Unlock()
	fmt.Fprintf(w, "\n}\n")
}
