// Session routing. Delta-solve state is shard-local — the incremental
// solution a session mutates lives in one backend's memory — so sessions
// cannot ride the ring per request. Creation routes by the instance's
// fingerprint (same key a one-shot solve of it would use); every later
// request for that session ID is pinned to the backend that created it.
//
// Pin-loss honesty: if the proxy restarts (pins are in-memory) or the
// pinned backend is ejected, the proxy answers 404/503 rather than
// guessing a shard — a delta applied to a backend without the session's
// state would be silently wrong. Clients already treat 404 as "recreate
// the session", which is the correct recovery.
package main

import (
	"encoding/json"
	"net/http"
	"time"

	"sectorpack/internal/model"
)

// sessionCreateEnvelope is the routing view of a POST /session body.
type sessionCreateEnvelope struct {
	Solver   string          `json:"solver"`
	Seed     *int64          `json:"seed"`
	Instance json.RawMessage `json:"instance"`
}

func (p *Proxy) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	p.requests.Add(1)
	start := time.Now()
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	key := p.sessionCreateRoutingKey(body)
	// Creation is NOT idempotent (two attempts make two sessions), so no
	// transient-status retries: one attempt per backend, transport-level
	// failover only. A failed create leaves no pin, so nothing leaks.
	b, resp, err := p.forward(r.Context(), key, http.MethodPost, pathWithQuery(r, "/session"), body, false)
	if err != nil {
		p.writeForwardError(w, "/session", err)
		return
	}
	if resp.Status == http.StatusOK {
		var created struct {
			SessionID string `json:"session_id"`
		}
		if json.Unmarshal(resp.Body, &created) == nil && created.SessionID != "" {
			p.sessions.Store(created.SessionID, b)
		}
	}
	p.logRoute("session.create", b, resp.Status, start)
	passthrough(w, b, resp)
}

func (p *Proxy) sessionCreateRoutingKey(body []byte) string {
	if req, raw, ok := model.ParseSolveRequest(body); ok {
		if req.Instance == nil {
			return "raw:" + string(body)
		}
		return p.itemRoutingKey(req.Solver, req.Seed, raw, req.Instance)
	}
	var env sessionCreateEnvelope
	if err := json.Unmarshal(body, &env); err != nil || len(env.Instance) == 0 {
		return "raw:" + string(body)
	}
	return p.itemRoutingKey(env.Solver, env.Seed, env.Instance, nil)
}

// pinnedBackend resolves a session ID to its pinned backend, writing the
// honest refusal when there is no usable pin.
func (p *Proxy) pinnedBackend(w http.ResponseWriter, id string) (*backend, bool) {
	v, ok := p.sessions.Load(id)
	if !ok {
		// No pin: either the session never existed or the proxy restarted.
		// 404 tells the client to recreate, which is the only safe recovery.
		p.pinMisses.Add(1)
		writeProxyError(w, http.StatusNotFound, "unknown session "+id+" (no shard pin; recreate the session)")
		return nil, false
	}
	b := v.(*backend)
	if b.down.Load() {
		// The state exists but its shard is unreachable; routing the delta
		// elsewhere would apply it to nothing. Hold the pin and tell the
		// client when the shard might be back.
		p.writeNoBackend(w)
		return nil, false
	}
	return b, true
}

func (p *Proxy) handleSessionDelta(w http.ResponseWriter, r *http.Request) {
	p.requests.Add(1)
	start := time.Now()
	id := r.PathValue("id")
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	b, ok := p.pinnedBackend(w, id)
	if !ok {
		return
	}
	// A delta is retryable only when the client supplied an idempotency
	// key — the daemon then dedupes replays; without one a retried delta
	// would apply twice.
	var probe struct {
		IdempotencyKey string `json:"idempotency_key"`
	}
	retryable := json.Unmarshal(body, &probe) == nil && probe.IdempotencyKey != ""
	b.requests.Add(1)
	resp, err := b.client.Do(r.Context(), http.MethodPost, pathWithQuery(r, "/session/"+id+"/delta"), body, retryable)
	if err != nil {
		if r.Context().Err() == nil {
			p.markFailure(b, err)
		}
		p.writeForwardError(w, "/session/delta", err)
		return
	}
	p.markSuccess(b)
	p.routed.Add(1)
	if resp.Status == http.StatusNotFound {
		// The backend lost the session (TTL eviction, restart without a
		// journal); drop the stale pin so the client's recreate re-routes.
		p.sessions.Delete(id)
	}
	p.logRoute("session.delta", b, resp.Status, start)
	passthrough(w, b, resp)
}

func (p *Proxy) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	p.requests.Add(1)
	start := time.Now()
	id := r.PathValue("id")
	b, ok := p.pinnedBackend(w, id)
	if !ok {
		return
	}
	b.requests.Add(1)
	// DELETE is idempotent on the daemon (a second delete is 404), so
	// transient-status retries are safe.
	resp, err := b.client.Do(r.Context(), http.MethodDelete, "/session/"+id, nil, true)
	if err != nil {
		if r.Context().Err() == nil {
			p.markFailure(b, err)
		}
		p.writeForwardError(w, "/session/delete", err)
		return
	}
	p.markSuccess(b)
	p.routed.Add(1)
	if resp.Status == http.StatusOK || resp.Status == http.StatusNotFound {
		p.sessions.Delete(id)
	}
	p.logRoute("session.delete", b, resp.Status, start)
	passthrough(w, b, resp)
}
