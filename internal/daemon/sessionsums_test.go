package daemon

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"sectorpack/internal/faultfs"
	"sectorpack/internal/gen"
	"sectorpack/internal/model"
	"sectorpack/internal/session"
)

// TestSessionSumsMatchReplies pins the store-wide sectord.sessions.* sums
// in /debug/vars through a whole session life: create, deltas, an
// idempotent replay, a failed re-solve, a delta whose journal append
// failed, DELETE, TTL eviction and restart recovery. At every step each
// sum equals the sum, over the sessions the daemon has counted, of the
// stats that session last answered with. A session that was deleted or
// evicted stays counted; a delta whose journal append failed does not
// count; a re-solve that failed does.
func TestSessionSumsMatchReplies(t *testing.T) {
	dir := t.TempDir()
	client := &http.Client{}
	tr := persistTrace()
	// The third session's first delta append (its journal's second write)
	// fails; every other filesystem operation goes through.
	cfg := durableConfig(dir)
	cfg.FS = faultfs.NewInjector(faultfs.OS, faultfs.Fault{Op: faultfs.OpWrite, Path: "-000003" + journalExt, N: 2})
	srv := NewServer(cfg)
	if err := srv.Restore(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// last holds, per counted session, the stats of its latest reply.
	last := map[string]session.Stats{}
	vars := func(base string) map[string]json.RawMessage {
		t.Helper()
		resp, raw := doJSON(t, client, http.MethodGet, base+"/debug/vars", nil)
		var m map[string]json.RawMessage
		if err := json.Unmarshal(raw, &m); resp.StatusCode != http.StatusOK || err != nil {
			t.Fatalf("/debug/vars: %d %v (%s)", resp.StatusCode, err, raw)
		}
		return m
	}
	intVar := func(m map[string]json.RawMessage, name string) int64 {
		t.Helper()
		var v int64
		if err := json.Unmarshal(m[name], &v); err != nil {
			t.Fatalf("var %s = %s: %v", name, m[name], err)
		}
		return v
	}
	check := func(step, base string) {
		t.Helper()
		var want session.Stats
		for _, st := range last {
			want.Solves += st.Solves
			want.Deltas += st.Deltas
			want.SweepsKept += st.SweepsKept
			want.SweepsDropped += st.SweepsDropped
			want.StepsReused += st.StepsReused
			want.StepsResolved += st.StepsResolved
		}
		m := vars(base)
		for name, w := range map[string]int64{
			"solves":         want.Solves,
			"deltas":         want.Deltas,
			"sweeps_kept":    want.SweepsKept,
			"sweeps_dropped": want.SweepsDropped,
			"steps_reused":   want.StepsReused,
			"steps_resolved": want.StepsResolved,
		} {
			if got := intVar(m, "sectord.sessions."+name); got != w {
				t.Errorf("after %s: sectord.sessions.%s = %d, want %d", step, name, got, w)
			}
		}
	}
	// send posts or deletes on a session route and, on a 200, records the
	// reply's stats as that session's latest.
	send := func(method, url string, body []byte, wantStatus int) (*http.Response, string) {
		t.Helper()
		resp, raw := doJSON(t, client, method, url, body)
		if resp.StatusCode != wantStatus {
			t.Fatalf("%s %s: %d %s, want %d", method, url, resp.StatusCode, raw, wantStatus)
		}
		var r struct {
			SessionID string        `json:"session_id"`
			Stats     session.Stats `json:"stats"`
		}
		if resp.StatusCode == http.StatusOK {
			if err := json.Unmarshal(raw, &r); err != nil {
				t.Fatalf("decode %s: %v (%s)", raw, err, raw)
			}
			last[r.SessionID] = r.Stats
		}
		return resp, r.SessionID
	}
	create := func(base, solver string, in *model.Instance) string {
		t.Helper()
		_, id := send(http.MethodPost, base+"/session", sessionCreateBody(t, solver, in, 1), http.StatusOK)
		return id
	}
	delta := func(base, id string, d model.Delta, key string, wantStatus int) *http.Response {
		t.Helper()
		resp, _ := send(http.MethodPost, base+"/session/"+id+"/delta", deltaBodyWithKey(t, d, key), wantStatus)
		return resp
	}

	a := create(ts.URL, "greedy", tr.Instance)
	check("create", ts.URL)
	delta(ts.URL, a, tr.Deltas[0], "a0", http.StatusOK)
	check("delta", ts.URL)
	if resp := delta(ts.URL, a, tr.Deltas[0], "a0", http.StatusOK); resp.Header.Get(idempotentHeader) != "replay" {
		t.Fatal("same-key retry not answered as a replay")
	}
	check("idempotent replay", ts.URL)

	// An exact session grown past exact's customer limit: the delta is
	// journaled and advances the session, but its re-solve fails with a
	// 400 that carries no stats, so the session's own count stands in for
	// a reply. The following shrink solves again and does answer.
	base := gen.MustGenerate(gen.Config{Family: gen.Uniform, Seed: 5, N: 20, M: 1})
	grow := model.Delta{}
	for k := 0; k < 6; k++ {
		grow.Add = append(grow.Add, model.Customer{Theta: 0.3 * float64(k), R: 1, Demand: 1})
	}
	b := create(ts.URL, "exact", base)
	before := last[b]
	delta(ts.URL, b, grow, "grow", http.StatusBadRequest)
	e, ok := srv.sessions.get(b)
	if !ok {
		t.Fatal("session gone after a failed re-solve")
	}
	e.mu.Lock()
	last[b] = e.sess.Stats()
	e.mu.Unlock()
	if last[b].Solves != before.Solves+1 {
		t.Fatalf("failed re-solve: session solves %d, want %d", last[b].Solves, before.Solves+1)
	}
	check("failed re-solve", ts.URL)
	delta(ts.URL, b, model.Delta{Remove: []int{0, 1, 2, 3}}, "shrink", http.StatusOK)
	check("delta after a failed re-solve", ts.URL)

	// The third session's delta cannot be journaled: the session is
	// dropped and the delta is not counted, but its create still is.
	c := create(ts.URL, "greedy", tr.Instance)
	delta(ts.URL, c, tr.Deltas[0], "c0", http.StatusInternalServerError)
	check("journal append failure", ts.URL)
	delta(ts.URL, c, tr.Deltas[0], "c0", http.StatusNotFound)

	live := create(ts.URL, "greedy", tr.Instance)
	delta(ts.URL, live, tr.Deltas[0], "l0", http.StatusOK)
	check("second session's delta", ts.URL)

	send(http.MethodDelete, ts.URL+"/session/"+a, nil, http.StatusOK)
	check("DELETE", ts.URL)

	// Back-date b's last use past the TTL; the next session request of
	// any kind sweeps it out.
	e.lastNanos.Store(0)
	send(http.MethodDelete, ts.URL+"/session/s-none", nil, http.StatusNotFound)
	if got := intVar(vars(ts.URL), "sectord.sessions.evicted"); got != 1 {
		t.Fatalf("sessions.evicted = %d, want 1", got)
	}
	check("TTL eviction", ts.URL)

	// A restart counts only the sessions it recovers: the one still live.
	srv.FlushState()
	ts.Close()
	next := NewServer(durableConfig(dir))
	if err := next.Restore(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got, failed := next.sessRecovered.Value(), next.sessRecoverFailed.Value(); got != 1 || failed != 0 {
		t.Fatalf("recovered %d sessions (%d failed), want 1 (0)", got, failed)
	}
	tsNext := httptest.NewServer(next.Handler())
	defer tsNext.Close()
	last = map[string]session.Stats{live: last[live]}
	check("restart recovery", tsNext.URL)
	delta(tsNext.URL, live, tr.Deltas[1], "l1", http.StatusOK)
	check("delta after recovery", tsNext.URL)
	send(http.MethodDelete, tsNext.URL+"/session/"+live, nil, http.StatusOK)
	check("DELETE after recovery", tsNext.URL)
}
