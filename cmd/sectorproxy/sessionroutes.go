// Session routing. Delta-solve state is shard-local — the incremental
// solution a session mutates lives in one backend's memory — so sessions
// cannot ride the ring per request. A POST /session body is a /solve body,
// so creation routes by solveRoutingKey and lands where a one-shot solve of
// it would; every later request for that session ID is pinned to the
// backend that created it.
//
// Pin-loss honesty: if the proxy restarts (pins are in-memory) or the
// pinned backend is ejected, the proxy answers 404/503 rather than
// guessing a shard — a delta applied to a backend without the session's
// state would be silently wrong. A 404 tells the client to recreate the
// session, which is the correct recovery.
package main

import (
	"encoding/json"
	"net/http"
	"time"
)

func (p *Proxy) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	p.requests.Add(1)
	start := time.Now()
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	key := p.solveRoutingKey(body)
	// Creation is not idempotent (two attempts make two sessions), so
	// sectorclient makes one attempt per backend and forward fails over
	// only on transport errors. A failed create leaves no pin, so nothing
	// leaks.
	b, resp, err := p.forward(r.Context(), key, http.MethodPost, pathWithQuery(r, "/session"), body)
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
	p.relay(w, "session.create", b, resp, start)
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
	resp, err := p.send(r.Context(), b, http.MethodPost, pathWithQuery(r, "/session/"+id+"/delta"), body)
	if err != nil {
		p.writeForwardError(w, "/session/delta", err)
		return
	}
	if resp.Status == http.StatusNotFound {
		// The backend lost the session (TTL eviction, restart without a
		// journal); drop the stale pin so the client's recreate re-routes.
		p.sessions.Delete(id)
	}
	p.relay(w, "session.delta", b, resp, start)
}

func (p *Proxy) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	p.requests.Add(1)
	start := time.Now()
	id := r.PathValue("id")
	b, ok := p.pinnedBackend(w, id)
	if !ok {
		return
	}
	resp, err := p.send(r.Context(), b, http.MethodDelete, "/session/"+id, nil)
	if err != nil {
		p.writeForwardError(w, "/session/delete", err)
		return
	}
	if resp.Status == http.StatusOK || resp.Status == http.StatusNotFound {
		p.sessions.Delete(id)
	}
	p.relay(w, "session.delete", b, resp, start)
}
