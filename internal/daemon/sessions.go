// Session endpoints: a client may open a long-lived delta-solve session
// (POST /session), stream deltas into it (POST /session/{id}/delta) and get
// each incremental re-solve back, then close it (DELETE /session/{id}).
// Sessions wrap internal/session — the warm-state reuse and its
// bit-identity-to-from-scratch contract live there, and so do each
// session's journal, its idempotency keys and the verification of its
// answers (session.Create, Session.Deliver, session.Recover). This file is
// the HTTP plumbing: a mutex-mapped store, per-session locking (a
// session.Session is not concurrent-safe), lazy idle eviction, the journal
// directory's file names, and counters.
//
// Session solves NEVER touch the fingerprint solve cache. A fingerprint
// names a one-shot (instance, options, solver) triple; a session's identity
// is its delta history, and its answers come from warm incremental state,
// not from content-addressed lookups. Session responses therefore always
// carry X-Sectord-Cache: off, and nothing on this path reads or populates
// Server.cache — the cache-isolation regression test pins that.
package daemon

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"sectorpack/internal/model"
	"sectorpack/internal/session"
)

// DefaultSessionMax is the live-session cap when Config leaves it zero.
const DefaultSessionMax = 64

// DefaultSessionTTL is the idle-eviction deadline when Config leaves it
// zero.
const DefaultSessionTTL = 15 * time.Minute

// sessionEntry is one live session plus its lock. session.Session is not
// safe for concurrent use; every Deliver/read happens under mu. lastNanos
// is atomic so the eviction sweep can read idleness without the lock.
type sessionEntry struct {
	mu        sync.Mutex
	sess      *session.Session // guarded by mu
	solver    string           // immutable after creation
	lastNanos atomic.Int64
}

func (e *sessionEntry) touch() { e.lastNanos.Store(time.Now().UnixNano()) }

// sessionStore owns the id → session map.
type sessionStore struct {
	mu sync.Mutex
	m  map[string]*sessionEntry // guarded by mu
}

// evictIdle removes every session idle longer than ttl, handing each to
// discard (under its lock) so its journal goes too. A session whose lock is
// held is mid-request and is skipped — it will be swept once idle again.
// Returns the number evicted.
func (st *sessionStore) evictIdle(ttl time.Duration, discard func(id string, sess *session.Session)) int {
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
		discard(id, e.sess)
		e.mu.Unlock()
		delete(st.m, id)
		evicted++
	}
	return evicted
}

// remove deletes id. It does not take e.mu: an in-flight Deliver can hold
// it for a whole solve.
func (st *sessionStore) remove(id string) (*sessionEntry, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.m[id]
	if !ok {
		return nil, false
	}
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

func (st *sessionStore) active() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.m)
}

// countStats adds what a counted session's Stats gained, from before to
// after, to the store-wide session sums. Stats only grow, so the sums
// never go backwards, also when a session dies.
func (s *Server) countStats(before, after session.Stats) {
	s.sessSolves.Add(uint64(after.Solves - before.Solves))
	s.sessDeltas.Add(uint64(after.Deltas - before.Deltas))
	s.sessSweepsKept.Add(uint64(after.SweepsKept - before.SweepsKept))
	s.sessSweepsDropped.Add(uint64(after.SweepsDropped - before.SweepsDropped))
	s.sessStepsReused.Add(uint64(after.StepsReused - before.StepsReused))
	s.sessStepsResolved.Add(uint64(after.StepsResolved - before.StepsResolved))
}

// sessionDeltaRequest is the POST /session/{id}/delta body. The delta's
// customer ids refer to the session's current instance (the state after
// every previously applied delta).
//
// IdempotencyKey makes the request safe to retry: if it equals the key of
// the delta that last advanced this session (even one whose solve failed),
// the request is answered from the session's current state instead of
// applying the delta a second time (the X-Sectord-Idempotent: replay header
// marks such answers; Session.Deliver decides). Retry loops — including
// ones that straddle a daemon restart, since recovery restores the last
// journaled key — should send a fresh unique key per logical delta.
type sessionDeltaRequest struct {
	TimeoutMillis  int64       `json:"timeout_ms,omitempty"`
	FormatVersion  int         `json:"format_version"`
	IdempotencyKey string      `json:"idempotency_key,omitempty"`
	Delta          model.Delta `json:"delta"`
}

// idempotentHeader marks a delta response that was answered from current
// state because its idempotency key matched the last applied delta.
const idempotentHeader = "X-Sectord-Idempotent"

// sessionResponse is the create/delta reply: the session handle, the solve
// the request produced, and the session's cumulative reuse stats.
type sessionResponse struct {
	SessionID string        `json:"session_id"`
	Stats     session.Stats `json:"stats"`
	model.SolveResponse
}

// sessionDeleteResponse is the DELETE reply.
type sessionDeleteResponse struct {
	SessionID string        `json:"session_id"`
	Stats     session.Stats `json:"stats"`
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
	if n := s.sessions.evictIdle(s.sessionTTL(), s.discardJournal); n > 0 {
		s.sessEvicted.Add(uint64(n))
		s.logger.Info("sessions evicted", slog.Int("count", n))
	}
}

// discardJournal closes a session that is gone for good — closed,
// evicted, or dropped — and deletes its journal, which must not resurrect
// it at the next restart. A deletion that fails leaves an orphan that the
// next recovery pass may replay into a session the client believes is
// gone, so it is counted and logged for operators to clean up. The caller
// holds the session's lock, or the session was never published.
func (s *Server) discardJournal(id string, sess *session.Session) {
	if !s.journalEnabled() {
		return
	}
	// The file is about to be deleted; a flush or close failure is moot.
	_ = sess.Close()
	if err := s.fsys.Remove(s.journalPath(id)); err != nil {
		s.journalOrphans.Add(1)
		s.logger.Warn("session journal remove failed; orphan journal left on disk",
			slog.String("session_id", id), slog.String("error", err.Error()))
	}
}

func (s *Server) nextSessionID() string {
	return fmt.Sprintf("s-%s-%06d", s.ridPrefix, s.sessSeq.Add(1))
}

// beginSession starts a session route's call: it answers X-Sectord-Cache:
// off on every response (session answers never come from the solve cache),
// logs a session record, and runs the lazy idle-eviction pass.
func (s *Server) beginSession(w http.ResponseWriter, r *http.Request, action string) *call {
	w.Header().Set(cacheHeader, cacheOff)
	c := s.begin(w, r)
	c.action, c.session = action, r.PathValue("id")
	s.sweepSessions()
	return c
}

// tableFull sheds a create because the session table is at cap. Unlike the
// inflight-semaphore sheds (setRetryAfter), a full table frees on DELETE or
// TTL eviction, which solve latency says nothing about; a fixed short hint
// is the honest one.
func (c *call) tableFull() {
	c.s.shed.Add(1)
	c.w.Header().Set("Retry-After", "1")
	c.fail(http.StatusTooManyRequests, "shed", fmt.Sprintf("session table full (%d live)", c.s.sessionMax()))
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	c := s.beginSession(w, r, "create")
	defer c.end()
	var req model.SolveRequest
	if !c.admit(prologue{}, decodeSolve(&req)) {
		return
	}
	if req.Instance == nil {
		c.reject(http.StatusBadRequest, "request missing instance")
		return
	}
	name, _, ok := c.resolve(req.Solver)
	if !ok {
		return
	}
	if s.sessions.active() >= s.sessionMax() {
		c.tableFull()
		return
	}

	ctx, cancel := s.solveContext(r.Context(), req.TimeoutMillis)
	defer cancel()
	// Create verifies the initial solve (an infeasible answer is a server
	// bug, never a served solution) and makes the journal's create record
	// durable before returning, so a crash right after the response cannot
	// lose a session the client believes exists.
	id := s.nextSessionID()
	sess, err := session.Create(ctx, req.Instance, session.Options{Solver: name, Core: s.solveOptions(req.Seed)},
		s.fsys, s.journalPath(id), s.cfg.JournalSyncEvery)
	if errors.Is(err, session.ErrJournal) {
		s.journalFailures.Add(1)
		c.fail(http.StatusInternalServerError, "error", "session journal create failed: "+err.Error())
		return
	}
	if err != nil {
		c.solveFailed(err)
		return
	}

	e := &sessionEntry{sess: sess, solver: name}
	e.touch()
	// Capture the response payload before the entry becomes visible:
	// session IDs are predictable, so the moment put succeeds a concurrent
	// delta can lock the entry and advance sess mid-read.
	stats := sess.Stats()
	sol := sess.Solution()
	if !s.sessions.put(id, e, s.sessionMax()) {
		s.discardJournal(id, sess)
		c.tableFull()
		return
	}
	s.sessCreated.Add(1)
	s.countStats(session.Stats{}, stats)
	c.session = id
	c.answerSession(name, sol, stats, true, "solver="+name)
}

// answerSession writes a create or delta reply for c.session. counted
// marks a fresh solve, which counts as solved and feeds the latency
// histogram; an idempotent replay does neither.
func (c *call) answerSession(solver string, sol model.Solution, stats session.Stats, counted bool, detail string) {
	elapsed := time.Since(c.start)
	if counted {
		c.s.solved.Add(1)
		c.s.observeLatency(solver, elapsed)
	}
	c.succeed(detail, sessionResponse{
		SessionID:     c.session,
		Stats:         stats,
		SolveResponse: *newSolveResponse(solver, sol, elapsed),
	})
}

func (s *Server) handleSessionDelta(w http.ResponseWriter, r *http.Request) {
	c := s.beginSession(w, r, "delta")
	defer c.end()
	id := c.session
	var req sessionDeltaRequest
	if !c.admit(prologue{}, func(rd io.Reader) (int, error) {
		dec := json.NewDecoder(rd)
		dec.DisallowUnknownFields()
		err := dec.Decode(&req)
		return req.FormatVersion, err
	}) {
		return
	}
	e, ok := s.sessions.get(id)
	if !ok {
		c.reject(http.StatusNotFound, fmt.Sprintf("no session %q (expired or never created)", id))
		return
	}

	ctx, cancel := s.solveContext(r.Context(), req.TimeoutMillis)
	defer cancel()

	// Serialize against other deltas to the same session; concurrent deltas
	// to different sessions only contend for inflight-semaphore slots.
	e.mu.Lock()
	e.touch()
	before := e.sess.Stats()
	sol, replayed, err := e.sess.Deliver(ctx, req.Delta, req.IdempotencyKey)
	if errors.Is(err, session.ErrJournal) {
		// The journal no longer matches the live session and can't be made
		// to. Drop the session entirely: a clean 404-and-recreate for the
		// client beats silently serving state that a restart would roll
		// back.
		s.journalFailures.Add(1)
		s.discardJournal(id, e.sess)
		e.mu.Unlock()
		s.sessions.remove(id)
		s.logger.Warn("session dropped: journal append failed",
			slog.String("session_id", id), slog.String("error", err.Error()))
		c.fail(http.StatusInternalServerError, "error", "session journal write failed; session dropped")
		return
	}
	// A delta that was journaled counts, whether or not its re-solve
	// succeeded; one whose append failed (above) does not.
	stats := e.sess.Stats()
	e.touch()
	e.mu.Unlock()
	s.countStats(before, stats)
	if replayed {
		s.idemReplays.Add(1)
	}
	if err != nil {
		// A rejected delta and a plain solver error both land in classify's
		// 400 arm.
		c.solveFailed(err)
		return
	}
	if replayed {
		w.Header().Set(idempotentHeader, "replay")
		c.answerSession(e.solver, sol, stats, false, "idempotent replay")
		return
	}
	c.answerSession(e.solver, sol, stats, true, fmt.Sprintf("profit=%d", sol.Profit))
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	c := s.beginSession(w, r, "delete")
	defer c.end()
	id := c.session
	e, ok := s.sessions.remove(id)
	if !ok {
		c.reject(http.StatusNotFound, fmt.Sprintf("no session %q (expired or never created)", id))
		return
	}
	s.sessClosed.Add(1)
	// Synchronize with an in-flight delta so the stats in the reply are
	// final.
	e.mu.Lock()
	stats := e.sess.Stats()
	s.discardJournal(id, e.sess)
	e.mu.Unlock()
	c.succeed("", sessionDeleteResponse{SessionID: id, Stats: stats})
}
