// Durability: sectord can survive a restart — crash or SIGTERM — without
// losing its warm state.
//
// Two artifacts persist. The solve cache is snapshotted to a single
// checksummed file (Config.SnapshotPath): a background loop and the
// shutdown drain rewrite it atomically (temp + fsync + rename + dir fsync),
// and Restore warm-loads it, skipping any entry whose CRC or structure does
// not hold. Restored entries get no special trust — the serving path
// re-gates every cache hit through core.VerifySolution before it is served,
// so a stale or tampered snapshot can cost a cache miss, never a wrong
// answer.
//
// Sessions journal themselves (internal/session) to an append-only WAL, one
// <id>.journal per session in Config.JournalDir: the create record, then
// every delta that advanced the instance, whether or not its re-solve
// succeeded. Both files share faultfs's header-and-frame record format.
// This file owns the directory: it names each journal after its session,
// and Restore hands every surviving one to session.Recover, which replays
// it through the same steps the live requests ran; by the session
// package's determinism contract the rebuilt session is bit-identical to
// the one that died. A journal with a torn tail is truncated to its last
// good frame (the torn suffix was never acknowledged); a journal whose
// create record is unreadable or whose replay cannot be rebuilt is counted
// in sectord.sessions.recover_failed and left on disk for inspection — the
// session then cleanly does not exist, and the client's POST /session retry
// builds a fresh one.
//
// Recovery semantics for clients: a session ID stays valid across a restart
// exactly when its journal recovered. Deltas may carry an idempotency_key;
// re-sending the last delta with the same key (the retry after an ambiguous
// network error or a restart) is answered from the session's current state
// instead of being applied twice. Recovery restores the last journaled key,
// so the retry crossing the crash is safe too.
package daemon

import (
	"context"
	"errors"
	"io/fs"
	"log/slog"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"sectorpack/internal/session"
)

// DefaultSnapshotInterval is the background cache-snapshot cadence when
// Config leaves it zero.
const DefaultSnapshotInterval = 30 * time.Second

// journalExt names session journal files: <session-id>.journal.
const journalExt = ".journal"

func (s *Server) snapshotEnabled() bool { return s.cache != nil && s.cfg.SnapshotPath != "" }
func (s *Server) journalEnabled() bool  { return s.cfg.JournalDir != "" }

// journalPath names session id's journal file, or returns "" when
// journaling is disabled (session.Create then keeps no journal).
func (s *Server) journalPath(id string) string {
	if !s.journalEnabled() {
		return ""
	}
	return filepath.Join(s.cfg.JournalDir, id+journalExt)
}

// Restore warm-loads persisted state before the server starts listening:
// the cache snapshot (if configured and present) and every recoverable
// session journal. Persistence problems degrade to a cold start — the only
// fatal error is a journal directory that cannot be created, because then
// the durability the configuration promises is impossible.
func (s *Server) Restore(ctx context.Context) error {
	if s.snapshotEnabled() {
		rep, err := s.cache.LoadSnapshot(s.fsys, s.cfg.SnapshotPath)
		switch {
		case errors.Is(err, fs.ErrNotExist):
			s.logger.Info("no cache snapshot; cold start", slog.String("path", s.cfg.SnapshotPath))
		case err != nil:
			// A rejected snapshot (bad magic, version skew, fingerprint
			// skew) is a cold start, not a startup failure: serving
			// correctness never depends on the snapshot.
			s.snapLoadFailures.Add(1)
			s.logger.Warn("cache snapshot rejected; cold start",
				slog.String("path", s.cfg.SnapshotPath), slog.String("error", err.Error()))
		default:
			s.snapLoadSkipped.Add(uint64(rep.Skipped))
			s.logger.Info("cache snapshot restored",
				slog.Int64("entries", rep.Restored), slog.Int64("skipped", rep.Skipped))
		}
	}
	if s.journalEnabled() {
		if err := s.fsys.MkdirAll(s.cfg.JournalDir, 0o755); err != nil {
			return err
		}
		s.recoverSessions(ctx)
	}
	return nil
}

// recoverSessions replays every journal in the journal directory. Failures
// are per-journal: one unrecoverable session never blocks the rest.
func (s *Server) recoverSessions(ctx context.Context) {
	entries, err := s.fsys.ReadDir(s.cfg.JournalDir)
	if err != nil {
		s.logger.Warn("journal directory unreadable", slog.String("error", err.Error()))
		return
	}
	for _, de := range entries {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, journalExt) {
			continue
		}
		id := strings.TrimSuffix(name, journalExt)
		if err := s.recoverSession(ctx, id); err != nil {
			s.sessRecoverFailed.Add(1)
			s.logger.Warn("session not recovered; journal left on disk",
				slog.String("session_id", id), slog.String("error", err.Error()))
			continue
		}
		s.sessRecovered.Add(1)
		s.logger.Info("session recovered", slog.String("session_id", id))
	}
}

func (s *Server) recoverSession(ctx context.Context, id string) error {
	sess, err := session.Recover(ctx, s.fsys, s.journalPath(id), s.cfg.JournalSyncEvery)
	if err != nil {
		return err
	}
	e := &sessionEntry{sess: sess, solver: sess.Solver()}
	e.touch()
	// Read the replayed stats before the entry becomes visible to deltas.
	st := sess.Stats()
	if !s.sessions.put(id, e, s.sessionMax()) {
		// Over the live-session cap. The journal stays on disk: a later
		// restart with free capacity can still recover it, and the client's
		// next delta gets a clean 404 rather than a corrupt session.
		return errors.Join(errors.New("session table full"), sess.Close())
	}
	s.countStats(session.Stats{}, st)
	return nil
}

// FlushState persists everything the daemon would otherwise lose: the
// current cache contents as a fresh snapshot, and every open session
// journal's group-commit window fsynced to disk. Serve calls it after the
// shutdown drain; tests and embedders may call it at any time.
func (s *Server) FlushState() {
	s.saveSnapshot()
	s.syncJournals()
}

func (s *Server) saveSnapshot() {
	if !s.snapshotEnabled() {
		return
	}
	n, err := s.cache.SaveSnapshot(s.fsys, s.cfg.SnapshotPath)
	if err != nil {
		s.snapSaveFailures.Add(1)
		s.logger.Warn("cache snapshot write failed",
			slog.String("path", s.cfg.SnapshotPath), slog.String("error", err.Error()))
		return
	}
	s.snapSaves.Add(1)
	s.logger.Info("cache snapshot written",
		slog.String("path", s.cfg.SnapshotPath), slog.Int("entries", n))
}

func (s *Server) syncJournals() {
	s.sessions.mu.Lock()
	live := make([]*sessionEntry, 0, len(s.sessions.m))
	for _, e := range s.sessions.m {
		live = append(live, e)
	}
	s.sessions.mu.Unlock()
	for _, e := range live {
		e.mu.Lock()
		if err := e.sess.Sync(); err != nil {
			s.journalFailures.Add(1)
			s.logger.Warn("journal sync failed at flush", slog.String("error", err.Error()))
		}
		e.mu.Unlock()
	}
}

// startSnapshotLoop launches the periodic cache-snapshot writer and returns
// its stop function (idempotent). A disabled snapshot config returns a
// no-op.
func (s *Server) startSnapshotLoop() (stop func()) {
	if !s.snapshotEnabled() {
		return func() {}
	}
	interval := s.cfg.SnapshotInterval
	if interval <= 0 {
		interval = DefaultSnapshotInterval
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.saveSnapshot()
			case <-done:
				return
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}
