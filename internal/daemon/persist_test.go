package daemon

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sectorpack/internal/core"
	"sectorpack/internal/faultfs"
	"sectorpack/internal/gen"
	"sectorpack/internal/model"
)

// durableConfig is a server config with both persistence artifacts rooted
// in dir. The snapshot interval is long so tests control flush timing via
// FlushState / shutdown, not a racing ticker.
func durableConfig(dir string) Config {
	return Config{
		Timeout:          30 * time.Second,
		Seed:             1,
		SnapshotPath:     filepath.Join(dir, "cache.snap"),
		SnapshotInterval: time.Hour,
		JournalDir:       filepath.Join(dir, "journals"),
		Logger:           slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
}

// sessResp is the subset of a session response the persistence tests
// compare.
type sessResp struct {
	SessionID   string    `json:"session_id"`
	Profit      int64     `json:"profit"`
	Orientation []float64 `json:"orientation"`
	Owner       []int     `json:"owner"`
	Stats       struct {
		Deltas int64 `json:"deltas"`
	} `json:"stats"`
}

func decodeSessResp(t *testing.T, raw []byte) sessResp {
	t.Helper()
	var r sessResp
	if err := json.Unmarshal(raw, &r); err != nil {
		t.Fatalf("decode session response: %v (%s)", err, raw)
	}
	return r
}

// solKey renders the comparable part of a solve answer.
func solKey(profit int64, orientation []float64, owner []int) string {
	return fmt.Sprintf("profit=%d orient=%v owner=%v", profit, fmt.Sprintf("%.17g", orientation), owner)
}

func persistTrace() *model.Trace {
	return gen.MustGenerateTrace(gen.ChurnConfig{
		Base:          gen.Config{Family: gen.Uniform, Seed: 51, N: 24, M: 3, Bands: 3, Tightness: 2, ProfitSpread: 0.4},
		Steps:         3,
		Rate:          0.1,
		Localized:     true,
		CapacityEvery: 2,
	})
}

// fromScratchKey solves the trace's step-k materialization with the solver
// options sectord uses for seed 1.
func fromScratchKey(t *testing.T, tr *model.Trace, k int) string {
	t.Helper()
	mat, err := tr.Materialize(k)
	if err != nil {
		t.Fatal(err)
	}
	solver, err := core.Get("greedy")
	if err != nil {
		t.Fatal(err)
	}
	sol, err := solver(context.Background(), mat, core.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return solKey(sol.Profit, sol.Assignment.Orientation, sol.Assignment.Owner)
}

func deltaBodyWithKey(t *testing.T, d model.Delta, idemKey string) []byte {
	t.Helper()
	b, err := json.Marshal(map[string]any{
		"format_version": 1, "idempotency_key": idemKey, "delta": d,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func varsMap(t *testing.T, client *http.Client, base string) map[string]any {
	t.Helper()
	resp, body := doJSON(t, client, http.MethodGet, base+"/debug/vars", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/vars: %d", resp.StatusCode)
	}
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("decode vars: %v", err)
	}
	return m
}

// TestRestartRestoresCacheAndSessions is the durability round trip: a
// daemon populates its cache and a journaled session, flushes, and dies; a
// second daemon over the same state directory serves the cached solve as a
// hit and continues the session — with answers bit-identical to
// from-scratch solves.
func TestRestartRestoresCacheAndSessions(t *testing.T) {
	dir := t.TempDir()
	tr := persistTrace()
	client := &http.Client{}

	// First life.
	a := NewServer(durableConfig(dir))
	if err := a.Restore(context.Background()); err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(a.Handler())
	body := solveBody(t, "greedy", sectorsInstance(), map[string]any{"seed": int64(1)})
	resp, raw := postSolve(t, client, tsA.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d %s", resp.StatusCode, raw)
	}
	var first struct {
		Profit      int64     `json:"profit"`
		Orientation []float64 `json:"orientation"`
		Owner       []int     `json:"owner"`
	}
	if err := json.Unmarshal(raw, &first); err != nil {
		t.Fatal(err)
	}

	resp, raw = doJSON(t, client, http.MethodPost, tsA.URL+"/session", sessionCreateBody(t, "greedy", tr.Instance, 1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("session create: %d %s", resp.StatusCode, raw)
	}
	id := decodeSessResp(t, raw).SessionID
	for k := 0; k < 2; k++ {
		resp, raw = doJSON(t, client, http.MethodPost, tsA.URL+"/session/"+id+"/delta",
			deltaBodyWithKey(t, tr.Deltas[k], fmt.Sprintf("key-%d", k)))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("delta %d: %d %s", k, resp.StatusCode, raw)
		}
	}
	a.FlushState()
	tsA.Close()

	// Second life.
	b := NewServer(durableConfig(dir))
	if err := b.Restore(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := b.sessRecovered.Value(); got != 1 {
		t.Fatalf("recovered %d sessions, want 1", got)
	}
	tsB := httptest.NewServer(b.Handler())
	defer tsB.Close()

	// The cached solve survives as a hit, bit-identical.
	resp, raw = postSolve(t, client, tsB.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restored solve: %d %s", resp.StatusCode, raw)
	}
	if got := resp.Header.Get(cacheHeader); got != "hit" {
		t.Fatalf("restored solve cache header %q, want hit", got)
	}
	var second struct {
		Profit      int64     `json:"profit"`
		Orientation []float64 `json:"orientation"`
		Owner       []int     `json:"owner"`
	}
	if err := json.Unmarshal(raw, &second); err != nil {
		t.Fatal(err)
	}
	if solKey(first.Profit, first.Orientation, first.Owner) != solKey(second.Profit, second.Orientation, second.Owner) {
		t.Fatal("restored cache entry drifted from the original solve")
	}

	// The session survives under its old ID and keeps applying deltas; the
	// answer matches a from-scratch solve of the full delta history.
	resp, raw = doJSON(t, client, http.MethodPost, tsB.URL+"/session/"+id+"/delta",
		deltaBodyWithKey(t, tr.Deltas[2], "key-2"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart delta: %d %s", resp.StatusCode, raw)
	}
	sr := decodeSessResp(t, raw)
	if got, want := solKey(sr.Profit, sr.Orientation, sr.Owner), fromScratchKey(t, tr, 3); got != want {
		t.Fatalf("post-restart session answer drifted:\n got  %s\n want %s", got, want)
	}
}

// TestServeShutdownFlushesDurableState pins the drain contract (the SIGTERM
// path runs exactly this: signal.NotifyContext cancels the ctx handed to
// Serve): after Serve returns, the cache snapshot is on disk and the
// session journal is recoverable by a fresh daemon.
func TestServeShutdownFlushesDurableState(t *testing.T) {
	dir := t.TempDir()
	tr := persistTrace()
	cfg := durableConfig(dir)
	srv := NewServer(cfg)
	if err := srv.Restore(context.Background()); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	base := "http://" + ln.Addr().String()
	client := &http.Client{}

	resp, raw := postSolve(t, client, base, solveBody(t, "greedy", sectorsInstance(), map[string]any{"seed": int64(1)}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d %s", resp.StatusCode, raw)
	}
	resp, raw = doJSON(t, client, http.MethodPost, base+"/session", sessionCreateBody(t, "greedy", tr.Instance, 1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("session create: %d %s", resp.StatusCode, raw)
	}
	id := decodeSessResp(t, raw).SessionID
	resp, raw = doJSON(t, client, http.MethodPost, base+"/session/"+id+"/delta", deltaBodyWithKey(t, tr.Deltas[0], "k0"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta: %d %s", resp.StatusCode, raw)
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if _, err := os.Stat(cfg.SnapshotPath); err != nil {
		t.Fatalf("no cache snapshot after drain: %v", err)
	}
	if _, err := os.Stat(filepath.Join(cfg.JournalDir, id+journalExt)); err != nil {
		t.Fatalf("no session journal after drain: %v", err)
	}

	fresh := NewServer(durableConfig(dir))
	if err := fresh.Restore(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := fresh.sessRecovered.Value(); got != 1 {
		t.Fatalf("recovered %d sessions after drain, want 1", got)
	}
	if st := fresh.cache.Stats(); st.Restored == 0 {
		t.Fatalf("no cache entries restored after drain: %+v", st)
	}
}

// TestRestoredSnapshotEntryIsRegated poisons the snapshot between two
// daemon lives: one entry's claimed profit is bumped (with its CRC fixed so
// the structural load accepts it). The restored entry must fail the serving
// layer's re-verification gate and be dropped — the client gets a fresh,
// correct solve, never the tampered answer.
func TestRestoredSnapshotEntryIsRegated(t *testing.T) {
	dir := t.TempDir()
	client := &http.Client{}
	cfg := durableConfig(dir)
	cfg.JournalDir = "" // cache-only test

	a := NewServer(cfg)
	tsA := httptest.NewServer(a.Handler())
	body := solveBody(t, "greedy", sectorsInstance(), map[string]any{"seed": int64(1)})
	resp, raw := postSolve(t, client, tsA.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d %s", resp.StatusCode, raw)
	}
	var first struct {
		Profit int64 `json:"profit"`
	}
	if err := json.Unmarshal(raw, &first); err != nil {
		t.Fatal(err)
	}
	a.FlushState()
	tsA.Close()

	// Tamper: bump the profit in the first entry's JSON payload and re-frame
	// it with a fresh CRC, so only the semantic gate can catch it.
	snap, err := os.ReadFile(cfg.SnapshotPath)
	if err != nil {
		t.Fatal(err)
	}
	frame := len(snapshotHeader(t, snap)) // magic + 3×u64
	plen := binary.LittleEndian.Uint32(snap[frame:])
	var entry map[string]json.RawMessage
	if err := json.Unmarshal(snap[frame+8:frame+8+int(plen)], &entry); err != nil {
		t.Fatal(err)
	}
	var profit int64
	if err := json.Unmarshal(entry["profit"], &profit); err != nil {
		t.Fatal(err)
	}
	entry["profit"] = json.RawMessage(fmt.Sprint(profit + 1))
	payload, err := json.Marshal(entry)
	if err != nil {
		t.Fatal(err)
	}
	tampered := faultfs.AppendFrame(append([]byte(nil), snap[:frame]...), payload)
	tampered = append(tampered, snap[frame+8+int(plen):]...)
	if err := os.WriteFile(cfg.SnapshotPath, tampered, 0o644); err != nil {
		t.Fatal(err)
	}

	b := NewServer(cfg)
	if err := b.Restore(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := b.cache.Stats(); st.Restored != 1 {
		t.Fatalf("tampered entry not structurally restored: %+v", st)
	}
	tsB := httptest.NewServer(b.Handler())
	defer tsB.Close()
	resp, raw = postSolve(t, client, tsB.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve after tamper: %d %s", resp.StatusCode, raw)
	}
	// The poisoned hit must have been dropped and re-solved: correct
	// profit, reported as a miss, and counted as an invalid entry.
	var got struct {
		Profit int64 `json:"profit"`
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.Profit != first.Profit {
		t.Fatalf("served profit %d, want the honest %d", got.Profit, first.Profit)
	}
	if h := resp.Header.Get(cacheHeader); h != "miss" {
		t.Fatalf("cache header %q after dropping poisoned entry, want miss", h)
	}
	if b.invalid.Value() == 0 {
		t.Fatal("poisoned entry not counted in sectord.invalid")
	}
}

// snapshotHeader returns the snapshot file header (magic + snapshot
// version + fingerprint version + count) after sanity-checking the magic.
func snapshotHeader(t *testing.T, snap []byte) []byte {
	t.Helper()
	const magic = "SPSNAP1\n"
	if len(snap) < len(magic)+24 || string(snap[:len(magic)]) != magic {
		t.Fatalf("not a snapshot file (%d bytes)", len(snap))
	}
	return snap[:len(magic)+24]
}

// TestSessionDeltaIdempotency: re-sending the last delta with its
// idempotency key answers from current state (marked by the replay header,
// delta counter unchanged); a new key applies normally.
func TestSessionDeltaIdempotency(t *testing.T) {
	dir := t.TempDir()
	tr := persistTrace()
	client := &http.Client{}
	srv := NewServer(durableConfig(dir))
	if err := srv.Restore(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, raw := doJSON(t, client, http.MethodPost, ts.URL+"/session", sessionCreateBody(t, "greedy", tr.Instance, 1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create: %d %s", resp.StatusCode, raw)
	}
	id := decodeSessResp(t, raw).SessionID

	resp, raw = doJSON(t, client, http.MethodPost, ts.URL+"/session/"+id+"/delta", deltaBodyWithKey(t, tr.Deltas[0], "once"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta: %d %s", resp.StatusCode, raw)
	}
	applied := decodeSessResp(t, raw)
	if resp.Header.Get(idempotentHeader) != "" {
		t.Fatal("first application marked as replay")
	}

	// The retry: same delta, same key. Must not apply twice.
	resp, raw = doJSON(t, client, http.MethodPost, ts.URL+"/session/"+id+"/delta", deltaBodyWithKey(t, tr.Deltas[0], "once"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry: %d %s", resp.StatusCode, raw)
	}
	replayed := decodeSessResp(t, raw)
	if resp.Header.Get(idempotentHeader) != "replay" {
		t.Fatalf("retry not marked idempotent (header %q)", resp.Header.Get(idempotentHeader))
	}
	if replayed.Stats.Deltas != applied.Stats.Deltas {
		t.Fatalf("retry applied the delta again: %d deltas, was %d", replayed.Stats.Deltas, applied.Stats.Deltas)
	}
	if solKey(replayed.Profit, replayed.Orientation, replayed.Owner) != solKey(applied.Profit, applied.Orientation, applied.Owner) {
		t.Fatal("replayed answer differs from the original application")
	}
	if srv.idemReplays.Value() != 1 {
		t.Fatalf("idem_replays = %d, want 1", srv.idemReplays.Value())
	}

	// A fresh key applies: the session advances, bit-identical to the
	// from-scratch solve of both deltas.
	resp, raw = doJSON(t, client, http.MethodPost, ts.URL+"/session/"+id+"/delta", deltaBodyWithKey(t, tr.Deltas[1], "twice"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second delta: %d %s", resp.StatusCode, raw)
	}
	next := decodeSessResp(t, raw)
	if next.Stats.Deltas != applied.Stats.Deltas+1 {
		t.Fatalf("second delta not applied: %d deltas", next.Stats.Deltas)
	}
	if got, want := solKey(next.Profit, next.Orientation, next.Owner), fromScratchKey(t, tr, 2); got != want {
		t.Fatalf("post-idempotency answer drifted:\n got  %s\n want %s", got, want)
	}
}

// TestDaemonCrashMatrix is the acceptance gate: a daemon lifetime (restore,
// solve, snapshot flush, session create, two deltas, final flush) is killed
// at every single filesystem operation, and a second daemon over the
// surviving directory must come up serving: any restored cache entry is
// complete (atomic snapshot: old, new, or absent — never torn), and any
// recovered session is bit-identical to a from-scratch solve of exactly the
// deltas its journal holds. A session may be cleanly absent; it may never
// be wrong.
func TestDaemonCrashMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("crash matrix is a long test")
	}
	tr := persistTrace()
	client := &http.Client{}
	solveB := solveBody(t, "greedy", sectorsInstance(), map[string]any{"seed": int64(1)})

	// lifetime drives one daemon life through fsys; HTTP-level failures are
	// expected once the injected crash fires (the "process" is dead to the
	// filesystem), so statuses are not asserted here.
	lifetime := func(fsys faultfs.FS, dir string) {
		cfg := durableConfig(dir)
		cfg.FS = fsys
		srv := NewServer(cfg)
		if err := srv.Restore(context.Background()); err != nil {
			return // crashed during restore
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		postSolve(t, client, ts.URL, solveB)
		srv.FlushState() // first snapshot
		resp, raw := doJSON(t, client, http.MethodPost, ts.URL+"/session", sessionCreateBody(t, "greedy", tr.Instance, 1))
		if resp.StatusCode == http.StatusOK {
			id := decodeSessResp(t, raw).SessionID
			doJSON(t, client, http.MethodPost, ts.URL+"/session/"+id+"/delta", deltaBodyWithKey(t, tr.Deltas[0], "k0"))
			doJSON(t, client, http.MethodPost, ts.URL+"/session/"+id+"/delta", deltaBodyWithKey(t, tr.Deltas[1], "k1"))
		}
		srv.FlushState() // final snapshot + journal sync
	}

	// Count pass.
	counter := faultfs.NewInjector(faultfs.OS)
	lifetime(counter, t.TempDir())
	total := counter.Ops()
	if total < 12 {
		t.Fatalf("suspiciously few filesystem ops in a full lifetime: %d", total)
	}

	for k := int64(1); k <= total; k++ {
		k := k
		t.Run(fmt.Sprintf("op-%02d", k), func(t *testing.T) {
			dir := t.TempDir()
			inj := faultfs.NewInjector(faultfs.OS, faultfs.Fault{N: k, Mode: faultfs.Crash})
			lifetime(inj, dir)
			if !inj.Crashed() {
				t.Fatalf("crash at op %d did not fire (ops=%d)", k, inj.Ops())
			}

			// The second life runs on the real filesystem.
			b := NewServer(durableConfig(dir))
			if err := b.Restore(context.Background()); err != nil {
				t.Fatalf("restore after crash at op %d: %v", k, err)
			}
			// Atomic snapshot writes mean a load never sees a torn file:
			// nothing skipped, no load failures.
			if skipped := b.snapLoadSkipped.Value(); skipped != 0 {
				t.Fatalf("crash at op %d: %d snapshot entries skipped (snapshot should be all-or-nothing)", k, skipped)
			}
			if fails := b.snapLoadFailures.Value(); fails != 0 {
				t.Fatalf("crash at op %d: snapshot load failed %d times", k, fails)
			}

			// Every recovered session is bit-identical to the from-scratch
			// solve of exactly its journaled delta count.
			b.sessions.mu.Lock()
			entries := make([]*sessionEntry, 0, len(b.sessions.m))
			for _, e := range b.sessions.m {
				entries = append(entries, e)
			}
			b.sessions.mu.Unlock()
			for _, e := range entries {
				n := int(e.sess.Stats().Deltas)
				sol := e.sess.Solution()
				if got, want := solKey(sol.Profit, sol.Assignment.Orientation, sol.Assignment.Owner), fromScratchKey(t, tr, n); got != want {
					t.Fatalf("crash at op %d: recovered session (%d deltas) drifted:\n got  %s\n want %s", k, n, got, want)
				}
			}

			// The daemon serves, and a re-solve of the cached instance is
			// correct whether it hits the restored entry or solves fresh.
			ts := httptest.NewServer(b.Handler())
			defer ts.Close()
			resp, raw := postSolve(t, client, ts.URL, solveB)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("crash at op %d: restarted daemon cannot solve: %d %s", k, resp.StatusCode, raw)
			}
		})
	}
}

// TestIdempotentRetryOfFailedSolveSurvivesRestart: a delta the instance
// accepts but whose re-solve fails with a plain solver error (exact over
// its customer limit) still advanced the session. Its key must stick — a
// same-key retry is answered from current state, never applied again —
// and its journal record too, so a restart recovers a session that
// answers exactly like the live one.
func TestIdempotentRetryOfFailedSolveSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	client := &http.Client{}
	base := gen.MustGenerate(gen.Config{Family: gen.Uniform, Seed: 5, N: 20, M: 1})
	grow := model.Delta{}
	for k := 0; k < 6; k++ {
		grow.Add = append(grow.Add, model.Customer{Theta: 0.3 * float64(k), R: 1, Demand: 1})
	}
	shrink := model.Delta{Remove: []int{0, 1, 2, 3}}
	if n := base.N() + len(grow.Add); n <= 24 {
		t.Fatalf("setup: %d customers stays inside exact's limit", n)
	}

	a := NewServer(durableConfig(dir))
	if err := a.Restore(context.Background()); err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(a.Handler())
	resp, raw := doJSON(t, client, http.MethodPost, tsA.URL+"/session", sessionCreateBody(t, "exact", base, 1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create: %d %s", resp.StatusCode, raw)
	}
	id := decodeSessResp(t, raw).SessionID
	delta := func(base string, d model.Delta, key string) (*http.Response, []byte) {
		return doJSON(t, client, http.MethodPost, base+"/session/"+id+"/delta", deltaBodyWithKey(t, d, key))
	}

	for try := 0; try < 2; try++ {
		if resp, raw := delta(tsA.URL, grow, "grow"); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("grow (try %d): %d %s, want exact's 400", try, resp.StatusCode, raw)
		}
	}
	if got := a.idemReplays.Value(); got != 1 {
		t.Fatalf("idem_replays = %d after one same-key retry, want 1", got)
	}
	// Only a session that took the grow delta exactly once is back inside
	// exact's limit after the shrink.
	resp, raw = delta(tsA.URL, shrink, "shrink")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shrink: %d %s", resp.StatusCode, raw)
	}
	live := decodeSessResp(t, raw)
	if live.Stats.Deltas != 2 {
		t.Fatalf("live session counts %d deltas, want 2", live.Stats.Deltas)
	}
	mat := base
	for _, d := range []model.Delta{grow, shrink} {
		next, err := model.ApplyDelta(mat, d)
		if err != nil {
			t.Fatal(err)
		}
		mat = next
	}
	solver, err := core.Get("exact")
	if err != nil {
		t.Fatal(err)
	}
	want, err := solver(context.Background(), mat, core.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	liveKey := solKey(live.Profit, live.Orientation, live.Owner)
	if wantKey := solKey(want.Profit, want.Assignment.Orientation, want.Assignment.Owner); liveKey != wantKey {
		t.Fatalf("live answer drifted from the from-scratch solve:\n got  %s\n want %s", liveKey, wantKey)
	}
	a.FlushState()
	tsA.Close()

	b := NewServer(durableConfig(dir))
	if err := b.Restore(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got, failed := b.sessRecovered.Value(), b.sessRecoverFailed.Value(); got != 1 || failed != 0 {
		t.Fatalf("recovered %d sessions (%d failed), want 1 (0)", got, failed)
	}
	tsB := httptest.NewServer(b.Handler())
	defer tsB.Close()
	resp, raw = delta(tsB.URL, shrink, "shrink")
	if resp.StatusCode != http.StatusOK || resp.Header.Get(idempotentHeader) != "replay" {
		t.Fatalf("post-restart retry: %d (idempotent %q) %s, want a 200 replay",
			resp.StatusCode, resp.Header.Get(idempotentHeader), raw)
	}
	recovered := decodeSessResp(t, raw)
	if got := solKey(recovered.Profit, recovered.Orientation, recovered.Owner); got != liveKey || recovered.Stats.Deltas != 2 {
		t.Fatalf("recovered session answers %s with %d deltas, live answered %s with 2",
			got, recovered.Stats.Deltas, liveKey)
	}
}

// parentSnapshotHex is a version-1 snapshot, captured from the daemon
// before snapshot payloads became JSON: one cache entry, the seed-1 greedy
// solve of sectorsInstance, in the old binary entry layout.
const parentSnapshotHex = "5350534e4150310a01000000000000000200000000000000010000000000000" +
	"09e0000001f62e87a400000003466346461653434646139373361343933646532616133643162303130" +
	"62323934333264643830616563316264366630306432346263333332353065666634610600000067726" +
	"565647903000000000000000000000000001440020000009a9999999999b93f9a9999999999b93f0500" +
	"0000000000000000000000000000000000000100000000000000ffffffffffffffffffffffffffffffff"

// TestSnapshotParentFormatRefused pins the version bump: a snapshot the
// previous layout wrote is refused whole (one load failure, nothing
// restored or skipped), and the daemon starts cold — the entry it held is
// solved afresh, not served.
func TestSnapshotParentFormatRefused(t *testing.T) {
	cfg := durableConfig(t.TempDir())
	cfg.JournalDir = ""
	snap, err := hex.DecodeString(parentSnapshotHex)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cfg.SnapshotPath, snap, 0o644); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(cfg)
	if err := srv.Restore(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := srv.snapLoadFailures.Value(); got != 1 {
		t.Fatalf("snapshot load failures = %d, want 1", got)
	}
	if st := srv.cache.Stats(); st.Restored != 0 || st.Entries != 0 || srv.snapLoadSkipped.Value() != 0 {
		t.Fatalf("parent snapshot partly loaded: %+v, %d skipped", st, srv.snapLoadSkipped.Value())
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, raw := postSolve(t, &http.Client{}, ts.URL, solveBody(t, "greedy", sectorsInstance(), map[string]any{"seed": int64(1)}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d %s", resp.StatusCode, raw)
	}
	if h := resp.Header.Get(cacheHeader); h != "miss" {
		t.Fatalf("cache header %q on a cold start, want miss", h)
	}
}
