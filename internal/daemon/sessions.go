// Session endpoints: a client may open a long-lived delta-solve session
// (POST /session), stream deltas into it (POST /session/{id}/delta) and get
// each incremental re-solve back, then close it (DELETE /session/{id}).
// Sessions wrap internal/session — the warm-state reuse and its
// bit-identity-to-from-scratch contract live there; this file is the HTTP
// plumbing: a mutex-mapped store, per-session locking (a session.Session is
// not concurrent-safe), lazy idle eviction, and counters.
//
// Session solves NEVER touch the fingerprint solve cache. A fingerprint
// names a one-shot (instance, options, solver) triple; a session's identity
// is its delta history, and its answers come from warm incremental state,
// not from content-addressed lookups. Session responses therefore always
// carry X-Sectord-Cache: off, and nothing on this path reads or populates
// Server.cache — the cache-isolation regression test pins that.
package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"sectorpack/internal/core"
	"sectorpack/internal/model"
	"sectorpack/internal/session"
)

// DefaultSessionMax is the live-session cap when Config leaves it zero.
const DefaultSessionMax = 64

// DefaultSessionTTL is the idle-eviction deadline when Config leaves it
// zero.
const DefaultSessionTTL = 15 * time.Minute

// sessionEntry is one live session plus its lock. session.Session is not
// safe for concurrent use; every Apply/read happens under mu. lastNanos is
// atomic so the eviction sweep can read idleness without the lock.
//
// journal (nil when journaling is disabled) is this session's WAL; appends
// happen under mu, in the same critical section as the Apply they record.
// lastIdemKey/lastOK implement delta idempotency: a delta re-sent with the
// key of the last applied one is answered from current state, not applied
// twice (lastOK distinguishes "applied and solved" from "applied but the
// solve failed", which a retry must re-solve).
type sessionEntry struct {
	mu          sync.Mutex
	sess        *session.Session // guarded by mu
	solver      string           // immutable after creation
	journal     *session.Journal // guarded by mu
	lastIdemKey string           // guarded by mu
	lastOK      bool             // guarded by mu
	lastNanos   atomic.Int64

	// statsSnap is the Stats reading published by the most recent
	// snapshotStats call. It lets the store-wide sums (remove, totals) read
	// a session's counters without taking mu — an in-flight Apply can hold
	// mu for a whole solve, and /debug/vars must not block behind it.
	statsSnap atomic.Pointer[session.Stats]
}

func (e *sessionEntry) touch() { e.lastNanos.Store(time.Now().UnixNano()) }

// snapshotStats reads the session's current stats and publishes them as
// the entry's lock-free snapshot.
//
//sectorlint:locked sessionEntry.mu
func (e *sessionEntry) snapshotStats() session.Stats {
	st := e.sess.Stats()
	e.statsSnap.Store(&st)
	return st
}

// stats returns the last published snapshot without taking mu. It can lag
// the live session by at most the delta currently being applied.
func (e *sessionEntry) stats() session.Stats {
	if p := e.statsSnap.Load(); p != nil {
		return *p
	}
	return session.Stats{}
}

// sessionStore owns the id → session map. retired accumulates the Stats of
// closed and evicted sessions so the store-wide sums in /debug/vars never
// go backwards when a session dies.
type sessionStore struct {
	mu      sync.Mutex
	m       map[string]*sessionEntry // guarded by mu
	retired session.Stats            // guarded by mu
}

// evictIdle removes every session idle longer than ttl. A session whose
// lock is held is mid-request and is skipped — it will be swept once idle
// again. A journal that cannot be removed is reported through onJournalErr
// (never nil'd away silently: the file would resurrect the session at the
// next restart). Returns the number evicted.
func (st *sessionStore) evictIdle(ttl time.Duration, onJournalErr func(id string, err error)) int {
	now := time.Now()
	st.mu.Lock()
	defer st.mu.Unlock()
	evicted := 0
	for id, e := range st.m {
		if now.Sub(time.Unix(0, e.lastNanos.Load())) <= ttl {
			continue
		}
		if !e.mu.TryLock() {
			continue // in flight right now; not idle
		}
		st.retired = addStats(st.retired, e.sess.Stats())
		if e.journal != nil {
			// An evicted session is gone for good; its journal must not
			// resurrect it at the next restart.
			if err := e.journal.Remove(); err != nil && onJournalErr != nil {
				onJournalErr(id, err)
			}
		}
		e.mu.Unlock()
		delete(st.m, id)
		evicted++
	}
	return evicted
}

// remove deletes id, folding its last published stats snapshot into the
// retired accumulator. It reads the snapshot, not the live session — sess
// is guarded by e.mu, which remove does not (and must not) take: an
// in-flight Apply can hold it for a whole solve.
func (st *sessionStore) remove(id string) (*sessionEntry, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.m[id]
	if !ok {
		return nil, false
	}
	st.retired = addStats(st.retired, e.stats())
	delete(st.m, id)
	return e, true
}

func (st *sessionStore) get(id string) (*sessionEntry, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.m[id]
	return e, ok
}

// put inserts the entry unless the store is at cap.
func (st *sessionStore) put(id string, e *sessionEntry, max int) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.m) >= max {
		return false
	}
	st.m[id] = e
	return true
}

// totals returns the store-wide Stats sums: retired sessions plus the
// published snapshot of every live one. Reading snapshots instead of the
// live sessions keeps totals lock-free per entry (an in-flight Apply would
// otherwise block the /debug/vars render) and race-free — sess is guarded
// by each entry's mu.
func (st *sessionStore) totals() session.Stats {
	st.mu.Lock()
	defer st.mu.Unlock()
	t := st.retired
	for _, e := range st.m {
		t = addStats(t, e.stats())
	}
	return t
}

func (st *sessionStore) active() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.m)
}

func addStats(a, b session.Stats) session.Stats {
	a.Solves += b.Solves
	a.Deltas += b.Deltas
	a.SweepsKept += b.SweepsKept
	a.SweepsDropped += b.SweepsDropped
	a.StepsReused += b.StepsReused
	a.StepsResolved += b.StepsResolved
	return a
}

// sessionDeltaRequest is the POST /session/{id}/delta body. The delta's
// customer ids refer to the session's current instance (the state after
// every previously applied delta).
//
// IdempotencyKey makes the request safe to retry: if it equals the key of
// the delta most recently applied to this session, the request is answered
// from the session's current state instead of applying the delta a second
// time (the X-Sectord-Idempotent: replay header marks such answers). Retry
// loops — including ones that straddle a daemon restart, since recovery
// restores the last journaled key — should send a fresh unique key per
// logical delta.
type sessionDeltaRequest struct {
	TimeoutMillis  int64       `json:"timeout_ms,omitempty"`
	FormatVersion  int         `json:"format_version"`
	IdempotencyKey string      `json:"idempotency_key,omitempty"`
	Delta          model.Delta `json:"delta"`
}

// idempotentHeader marks a delta response that was answered from current
// state because its idempotency key matched the last applied delta.
const idempotentHeader = "X-Sectord-Idempotent"

// sessionStats is the wire form of session.Stats.
type sessionStats struct {
	Solves        int64 `json:"solves"`
	Deltas        int64 `json:"deltas"`
	SweepsKept    int64 `json:"sweeps_kept"`
	SweepsDropped int64 `json:"sweeps_dropped"`
	StepsReused   int64 `json:"steps_reused"`
	StepsResolved int64 `json:"steps_resolved"`
}

func newSessionStats(st session.Stats) sessionStats {
	return sessionStats{
		Solves:        st.Solves,
		Deltas:        st.Deltas,
		SweepsKept:    st.SweepsKept,
		SweepsDropped: st.SweepsDropped,
		StepsReused:   st.StepsReused,
		StepsResolved: st.StepsResolved,
	}
}

// sessionResponse is the create/delta reply: the session handle, the solve
// the request produced, and the session's cumulative reuse stats.
type sessionResponse struct {
	SessionID string       `json:"session_id"`
	Stats     sessionStats `json:"stats"`
	// Embedded by value, not pointer: encoding/json cannot allocate an
	// embedded pointer to an unexported type when clients decode this.
	solveResponse
}

// sessionDeleteResponse is the DELETE reply.
type sessionDeleteResponse struct {
	SessionID string       `json:"session_id"`
	Stats     sessionStats `json:"stats"`
}

func (s *Server) sessionMax() int {
	if s.cfg.SessionMax > 0 {
		return s.cfg.SessionMax
	}
	return DefaultSessionMax
}

func (s *Server) sessionTTL() time.Duration {
	if s.cfg.SessionTTL > 0 {
		return s.cfg.SessionTTL
	}
	return DefaultSessionTTL
}

// sweepSessions runs the lazy idle-eviction pass; every session route calls
// it on entry, so an abandoned session outlives its TTL only until the next
// session request of any kind.
func (s *Server) sweepSessions() {
	if n := s.sessions.evictIdle(s.sessionTTL(), s.journalRemoveFailed); n > 0 {
		s.sessEvicted.Add(int64(n))
		s.logger.Info("sessions evicted", slog.Int("count", n))
	}
}

// journalRemoveFailed records a journal deletion that failed: the file is
// now an orphan that the next restart's recovery pass may replay into a
// session the client believes is gone. Counted and logged so operators can
// clean the journal directory.
func (s *Server) journalRemoveFailed(id string, err error) {
	s.journalOrphans.Add(1)
	s.logger.Warn("session journal remove failed; orphan journal left on disk",
		slog.String("session_id", id), slog.String("error", err.Error()))
}

func (s *Server) nextSessionID() string {
	return fmt.Sprintf("s-%s-%06d", s.ridPrefix, s.sessSeq.Add(1))
}

// logSession is the session routes' structured log line.
func (s *Server) logSession(action, id string, start time.Time, status int, detail string) {
	level := slog.LevelInfo
	if status >= 500 {
		level = slog.LevelWarn
	}
	attrs := []slog.Attr{
		slog.String("session_id", id),
		slog.String("action", action),
		slog.Int("status", status),
		slog.Float64("duration_ms", float64(time.Since(start))/float64(time.Millisecond)),
	}
	if detail != "" {
		attrs = append(attrs, slog.String("detail", detail))
	}
	s.logger.LogAttrs(context.Background(), level, "session", attrs...)
}

// sessionSolveStatus maps a session solve error onto the same status/outcome
// taxonomy as /solve and bumps the matching counter.
func (s *Server) sessionSolveStatus(rid string, err error) (int, string) {
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
		return http.StatusInternalServerError, "solve failed: " + pe.Error()
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		s.cancellations.Add(1)
		return http.StatusServiceUnavailable, "solve aborted: " + err.Error()
	case errors.As(err, &ie):
		s.invalid.Add(1)
		return http.StatusInternalServerError, "solve failed: " + ie.Error()
	default:
		s.failures.Add(1)
		return http.StatusBadRequest, "solve failed: " + err.Error()
	}
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	// Session answers never come from the solve cache; say so on every
	// response, including errors.
	w.Header().Set(cacheHeader, cacheOff)
	rid := s.nextRequestID()
	s.sweepSessions()

	fail := func(status int, msg string) {
		s.logSession("create", "", start, status, msg)
		writeJSON(w, status, errorResponse{Error: msg})
	}

	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	default:
		s.shed.Add(1)
		s.setRetryAfter(w)
		fail(http.StatusTooManyRequests, "server at capacity")
		return
	}

	req, err := model.DecodeSolveRequest(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		s.failures.Add(1)
		fail(http.StatusBadRequest, "decode request: "+err.Error())
		return
	}
	if req.FormatVersion != 1 {
		s.failures.Add(1)
		fail(http.StatusBadRequest, fmt.Sprintf("unsupported format_version %d (want 1)", req.FormatVersion))
		return
	}
	if req.Instance == nil {
		s.failures.Add(1)
		fail(http.StatusBadRequest, "request missing instance")
		return
	}
	name, _, err := s.resolveSolver(req.Solver)
	if err != nil {
		s.failures.Add(1)
		fail(http.StatusBadRequest, err.Error())
		return
	}
	if s.sessions.active() >= s.sessionMax() {
		s.shed.Add(1)
		// Unlike the inflight-semaphore sheds (setRetryAfter), a full
		// session table frees on DELETE or TTL eviction, which solve
		// latency says nothing about; a fixed short hint is the honest one.
		w.Header().Set("Retry-After", "1")
		fail(http.StatusTooManyRequests, fmt.Sprintf("session table full (%d live)", s.sessionMax()))
		return
	}

	ctx := r.Context()
	if timeout := s.solveTimeout(req.TimeoutMillis); timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	sopt := session.Options{
		Solver: name,
		Core:   s.solveOptions(req.Seed),
	}
	sess, err := session.New(ctx, req.Instance, sopt)
	if err != nil {
		status, msg := s.sessionSolveStatus(rid, err)
		fail(status, msg)
		return
	}
	// The same post-solve gate as /solve: an infeasible answer is a server
	// bug, never a served solution.
	if err := core.VerifySolution(name, sess.Instance(), sess.Solution()); err != nil {
		s.invalid.Add(1)
		fail(http.StatusInternalServerError, "solve failed: "+err.Error())
		return
	}

	id := s.nextSessionID()
	e := &sessionEntry{sess: sess, solver: name}
	if s.journalEnabled() {
		// The journal's create record must be durable before the session is
		// acknowledged — otherwise a crash right after the response would
		// lose a session the client believes exists. CreateJournal fsyncs
		// the record and the directory entry before returning.
		j, jerr := session.CreateJournal(s.fsys, s.journalPath(id), sopt, req.Instance, s.journalSyncEvery())
		if jerr != nil {
			s.journalFailures.Add(1)
			fail(http.StatusInternalServerError, "session journal create failed: "+jerr.Error())
			return
		}
		e.journal = j
	}
	e.touch()
	// Capture the response payload and publish the first stats snapshot
	// before the entry becomes visible: session IDs are predictable, so the
	// moment put succeeds a concurrent delta can lock the entry and advance
	// sess mid-read.
	stats := sess.Stats()
	sol := sess.Solution()
	e.statsSnap.Store(&stats)
	if !s.sessions.put(id, e, s.sessionMax()) {
		if e.journal != nil {
			if rerr := e.journal.Remove(); rerr != nil {
				s.journalRemoveFailed(id, rerr)
			}
		}
		s.shed.Add(1)
		w.Header().Set("Retry-After", "1")
		fail(http.StatusTooManyRequests, fmt.Sprintf("session table full (%d live)", s.sessionMax()))
		return
	}
	s.sessCreated.Add(1)
	elapsed := time.Since(start)
	s.solved.Add(1)
	s.observeLatency(name, elapsed)
	s.logSession("create", id, start, http.StatusOK, "solver="+name)
	writeJSON(w, http.StatusOK, sessionResponse{
		SessionID:     id,
		Stats:         newSessionStats(stats),
		solveResponse: *newSolveResponse(name, sol, elapsed),
	})
}

func (s *Server) handleSessionDelta(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	w.Header().Set(cacheHeader, cacheOff)
	rid := s.nextRequestID()
	id := r.PathValue("id")
	s.sweepSessions()

	fail := func(status int, msg string) {
		s.logSession("delta", id, start, status, msg)
		writeJSON(w, status, errorResponse{Error: msg})
	}

	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	default:
		s.shed.Add(1)
		s.setRetryAfter(w)
		fail(http.StatusTooManyRequests, "server at capacity")
		return
	}

	var req sessionDeltaRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.failures.Add(1)
		fail(http.StatusBadRequest, "decode request: "+err.Error())
		return
	}
	if req.FormatVersion != 1 {
		s.failures.Add(1)
		fail(http.StatusBadRequest, fmt.Sprintf("unsupported format_version %d (want 1)", req.FormatVersion))
		return
	}
	e, ok := s.sessions.get(id)
	if !ok {
		s.failures.Add(1)
		fail(http.StatusNotFound, fmt.Sprintf("no session %q (expired or never created)", id))
		return
	}

	ctx := r.Context()
	if timeout := s.solveTimeout(req.TimeoutMillis); timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	// Serialize against other deltas to the same session; concurrent deltas
	// to different sessions only contend for inflight-semaphore slots.
	e.mu.Lock()
	e.touch()

	// Idempotent replay: this exact delta was the last one applied, so the
	// session's current state already reflects it. Answer from that state
	// instead of applying it twice. If its solve never committed (lastOK is
	// false — the delta advanced the instance but the re-solve failed), an
	// empty-delta Apply re-solves the current instance in place; the empty
	// delta is not journaled because journal replay re-solves anyway.
	if req.IdempotencyKey != "" && req.IdempotencyKey == e.lastIdemKey {
		s.idemReplays.Add(1)
		var sol model.Solution
		var err error
		if e.lastOK {
			sol = e.sess.Solution()
		} else {
			sol, err = e.sess.Apply(ctx, model.Delta{})
			if err == nil {
				if verr := core.VerifySolution(e.solver, e.sess.Instance(), sol); verr != nil {
					err = verr
				}
			}
			e.lastOK = err == nil
		}
		stats := e.snapshotStats()
		e.touch()
		e.mu.Unlock()
		if err != nil {
			status, msg := s.sessionSolveStatus(rid, err)
			fail(status, msg)
			return
		}
		elapsed := time.Since(start)
		w.Header().Set(idempotentHeader, "replay")
		s.logSession("delta", id, start, http.StatusOK, "idempotent replay")
		writeJSON(w, http.StatusOK, sessionResponse{
			SessionID:     id,
			Stats:         newSessionStats(stats),
			solveResponse: *newSolveResponse(e.solver, sol, elapsed),
		})
		return
	}

	sol, err := e.sess.Apply(ctx, req.Delta)
	var verr error
	if err == nil {
		verr = core.VerifySolution(e.solver, e.sess.Instance(), sol)
	}
	var status int
	var msg string
	if err != nil {
		status, msg = s.sessionSolveStatus(rid, err)
	}
	// Session.Apply installs the new instance before solving, so the state
	// advanced unless the delta itself was rejected (the 400 path). Every
	// state advance must reach the journal — including failed solves —
	// or replay would diverge from the live session.
	advanced := err == nil || status != http.StatusBadRequest
	if advanced && e.journal != nil {
		if jerr := e.journal.AppendDelta(req.Delta, req.IdempotencyKey); jerr != nil {
			// The journal no longer matches the live session and can't be
			// made to. Drop the session entirely: a clean 404-and-recreate
			// for the client beats silently serving state that a restart
			// would roll back.
			s.journalFailures.Add(1)
			if rerr := e.journal.Remove(); rerr != nil {
				s.journalRemoveFailed(id, rerr)
			}
			e.mu.Unlock()
			s.sessions.remove(id)
			s.logger.Warn("session dropped: journal append failed",
				slog.String("session_id", id), slog.String("error", jerr.Error()))
			fail(http.StatusInternalServerError, "session journal write failed; session dropped")
			return
		}
	}
	if advanced {
		e.lastIdemKey = req.IdempotencyKey
		e.lastOK = err == nil && verr == nil
	}
	stats := e.snapshotStats()
	e.touch()
	e.mu.Unlock()
	if err != nil {
		fail(status, msg)
		return
	}
	if verr != nil {
		s.invalid.Add(1)
		fail(http.StatusInternalServerError, "solve failed: "+verr.Error())
		return
	}
	s.sessDeltas.Add(1)
	elapsed := time.Since(start)
	s.solved.Add(1)
	s.observeLatency(e.solver, elapsed)
	s.logSession("delta", id, start, http.StatusOK, fmt.Sprintf("profit=%d", sol.Profit))
	writeJSON(w, http.StatusOK, sessionResponse{
		SessionID:     id,
		Stats:         newSessionStats(stats),
		solveResponse: *newSolveResponse(e.solver, sol, elapsed),
	})
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	w.Header().Set(cacheHeader, cacheOff)
	id := r.PathValue("id")
	s.sweepSessions()

	e, ok := s.sessions.remove(id)
	if !ok {
		s.failures.Add(1)
		s.logSession("delete", id, start, http.StatusNotFound, "")
		writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("no session %q (expired or never created)", id)})
		return
	}
	s.sessClosed.Add(1)
	// Synchronize with an in-flight delta so the stats in the reply are
	// final (remove already folded the last published snapshot into the
	// store-wide accumulator).
	e.mu.Lock()
	stats := e.sess.Stats()
	if e.journal != nil {
		// A deliberately closed session must not be resurrected by the next
		// restart's recovery pass.
		if rerr := e.journal.Remove(); rerr != nil {
			s.journalRemoveFailed(id, rerr)
		}
	}
	e.mu.Unlock()
	s.logSession("delete", id, start, http.StatusOK, "")
	writeJSON(w, http.StatusOK, sessionDeleteResponse{SessionID: id, Stats: newSessionStats(stats)})
}

// sessionVars returns the session metrics for /debug/vars.
func (s *Server) sessionVars() []struct {
	name string
	v    expvar.Var
} {
	intFunc := func(f func() int64) expvar.Var { return expvar.Func(func() any { return f() }) }
	return []struct {
		name string
		v    expvar.Var
	}{
		{"sectord.sessions.created", &s.sessCreated},
		{"sectord.sessions.closed", &s.sessClosed},
		{"sectord.sessions.evicted", &s.sessEvicted},
		{"sectord.sessions.deltas", &s.sessDeltas},
		{"sectord.sessions.active", intFunc(func() int64 { return int64(s.sessions.active()) })},
		{"sectord.sessions.solves", intFunc(func() int64 { return s.sessions.totals().Solves })},
		{"sectord.sessions.sweeps_kept", intFunc(func() int64 { return s.sessions.totals().SweepsKept })},
		{"sectord.sessions.sweeps_dropped", intFunc(func() int64 { return s.sessions.totals().SweepsDropped })},
		{"sectord.sessions.steps_reused", intFunc(func() int64 { return s.sessions.totals().StepsReused })},
		{"sectord.sessions.steps_resolved", intFunc(func() int64 { return s.sessions.totals().StepsResolved })},
	}
}
