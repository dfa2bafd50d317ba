// Session routing tests: a session's delta-solve state lives on exactly
// one shard, so the proxy must pin every request for a session ID to the
// backend that created it, answer honestly (404) when it has no pin, and
// produce delta-by-delta answers identical to a direct single-backend
// session.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"sectorpack/internal/gen"
	"sectorpack/internal/model"
	"sectorpack/internal/sectorclient"
)

func sessionCreateBody(t *testing.T, in *model.Instance) []byte {
	t.Helper()
	body, err := json.Marshal(map[string]any{
		"format_version": 1, "solver": "greedy", "instance": in,
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func deltaBody(t *testing.T, key string, d model.Delta) []byte {
	t.Helper()
	body, err := json.Marshal(map[string]any{
		"format_version": 1, "idempotency_key": key, "delta": d,
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func sessionDeltas() []model.Delta {
	return []model.Delta{
		{SetDemand: []model.DemandChange{{Customer: 1, Demand: 7}}},
		{Remove: []int{0}, Add: []model.Customer{{Theta: 1.2, R: 2.0, Demand: 3}}},
	}
}

func TestFleetSessionPinnedDifferential(t *testing.T) {
	backends, _, proxy := startFleet(t, 3)
	in, err := gen.Generate(gen.Config{Family: gen.Uniform, Seed: 500, N: 30, M: 4})
	if err != nil {
		t.Fatal(err)
	}

	// The reference run: one session held entirely by one backend.
	var directAnswers []map[string]any
	status, raw, _ := post(t, backends[0].url()+"/session", sessionCreateBody(t, in))
	if status != http.StatusOK {
		t.Fatalf("direct create: status %d\n%s", status, raw)
	}
	direct := normalized(t, raw)
	directID, _ := direct["session_id"].(string)
	delete(direct, "session_id")
	directAnswers = append(directAnswers, direct)
	for i, d := range sessionDeltas() {
		status, raw, _ = post(t, backends[0].url()+"/session/"+directID+"/delta", deltaBody(t, fmt.Sprintf("dk%d", i), d))
		if status != http.StatusOK {
			t.Fatalf("direct delta %d: status %d\n%s", i, status, raw)
		}
		m := normalized(t, raw)
		delete(m, "session_id")
		directAnswers = append(directAnswers, m)
	}

	// The proxied run must match answer for answer, and every request
	// after creation must land on the creating shard.
	status, raw, hdr := post(t, proxy.URL+"/session", sessionCreateBody(t, in))
	if status != http.StatusOK {
		t.Fatalf("proxied create: status %d\n%s", status, raw)
	}
	home := hdr.Get("X-Sectord-Shard")
	if home == "" {
		t.Fatal("proxied session create carries no shard attribution")
	}
	prox := normalized(t, raw)
	proxID, _ := prox["session_id"].(string)
	if proxID == "" {
		t.Fatalf("proxied create returned no session_id:\n%s", raw)
	}
	delete(prox, "session_id")
	if !reflect.DeepEqual(directAnswers[0], prox) {
		t.Errorf("create answers differ:\ndirect:  %v\nproxied: %v", directAnswers[0], prox)
	}
	for i, d := range sessionDeltas() {
		status, raw, hdr = post(t, proxy.URL+"/session/"+proxID+"/delta", deltaBody(t, fmt.Sprintf("pk%d", i), d))
		if status != http.StatusOK {
			t.Fatalf("proxied delta %d: status %d\n%s", i, status, raw)
		}
		if got := hdr.Get("X-Sectord-Shard"); got != home {
			t.Errorf("delta %d served by shard %q, want pinned shard %q", i, got, home)
		}
		m := normalized(t, raw)
		delete(m, "session_id")
		if !reflect.DeepEqual(directAnswers[i+1], m) {
			t.Errorf("delta %d answers differ:\ndirect:  %v\nproxied: %v", i, directAnswers[i+1], m)
		}
	}

	// Delete through the proxy unpins; the next delta is an honest 404.
	req, _ := http.NewRequest(http.MethodDelete, proxy.URL+"/session/"+proxID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("proxied delete: status %d", resp.StatusCode)
	}
	status, _, _ = post(t, proxy.URL+"/session/"+proxID+"/delta", deltaBody(t, "after-delete", sessionDeltas()[0]))
	if status != http.StatusNotFound {
		t.Errorf("delta after delete: status %d, want 404", status)
	}
}

// TestFleetSessionCreateLandsOnSolveShard: a POST /session body is a
// /solve body, so the proxy routes both by the same key and a session is
// created on the shard whose cache a /solve of the same body warms. Bodies
// with an invalid instance route together too, so both get the same
// shard's 400.
func TestFleetSessionCreateLandsOnSolveShard(t *testing.T) {
	_, _, proxy := startFleet(t, 3)
	type body struct {
		raw    []byte
		status int
	}
	var bodies []body
	for seed := int64(600); seed < 606; seed++ {
		in, err := gen.Generate(gen.Config{Family: gen.Uniform, Seed: seed, N: 20, M: 3})
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, body{sessionCreateBody(t, in), http.StatusOK})
	}
	for k := 0; k < 3; k++ {
		raw := fmt.Appendf(nil, `{"format_version":1,"solver":"greedy","instance":{"variant":0,`+
			`"customers":[{"id":0,"theta":%d,"r":-2,"demand":1}],"antennas":[]}}`, k)
		bodies = append(bodies, body{raw, http.StatusBadRequest})
	}
	for i, b := range bodies {
		solveStatus, raw, solveHdr := post(t, proxy.URL+"/solve", b.raw)
		if solveStatus != b.status {
			t.Fatalf("body %d: /solve status %d, want %d\n%s", i, solveStatus, b.status, raw)
		}
		createStatus, raw, createHdr := post(t, proxy.URL+"/session", b.raw)
		if createStatus != b.status {
			t.Fatalf("body %d: POST /session status %d, want %d\n%s", i, createStatus, b.status, raw)
		}
		solveShard, createShard := solveHdr.Get("X-Sectord-Shard"), createHdr.Get("X-Sectord-Shard")
		if solveShard == "" || createShard != solveShard {
			t.Errorf("body %d: session created on shard %q, /solve served by %q", i, createShard, solveShard)
		}
	}
}

func TestFleetSessionPinLossIsHonest404(t *testing.T) {
	backends, _, proxy := startFleet(t, 2)
	in, err := gen.Generate(gen.Config{Family: gen.Uniform, Seed: 501, N: 24, M: 3})
	if err != nil {
		t.Fatal(err)
	}
	status, raw, _ := post(t, proxy.URL+"/session", sessionCreateBody(t, in))
	if status != http.StatusOK {
		t.Fatalf("create: status %d", status)
	}
	var created struct {
		SessionID string `json:"session_id"`
	}
	if err := json.Unmarshal(raw, &created); err != nil || created.SessionID == "" {
		t.Fatalf("bad create response: %v\n%s", err, raw)
	}

	// A second proxy over the same fleet (a restart: pins are in-memory)
	// must refuse to guess which shard holds the session.
	p2 := NewProxy(ProxyConfig{
		Backends: []string{backends[0].url(), backends[1].url()},
		Seed:     1, MaxTuples: 200_000,
		Client: sectorclient.Options{MaxRetries: -1},
	})
	ts2 := httptest.NewServer(p2.Handler())
	defer ts2.Close()
	resp, err := http.Post(
		ts2.URL+"/session/"+created.SessionID+"/delta",
		"application/json",
		bytes.NewReader(deltaBody(t, "k", sessionDeltas()[0])),
	)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pin-lost delta: status %d, want 404", resp.StatusCode)
	}
	if p2.pinMisses.Value() != 1 {
		t.Errorf("session_pin_misses = %d, want 1", p2.pinMisses.Value())
	}
}
