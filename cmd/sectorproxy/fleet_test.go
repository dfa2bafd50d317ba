// The fleet differential suite (ISSUE 9 headline): real internal/daemon
// backends boot in-process — race-instrumented, not spawned binaries —
// behind a real Proxy, and every route is pinned byte-identical to a
// direct backend answer. The backends all run the same deterministic
// config, so WHERE the ring sends a request must never change WHAT comes
// back; any divergence is the proxy editorialising, which is the one
// thing it must never do. The kill test restarts a backend on its own
// port mid-run to cover ejection, rebalance, and readmission on live
// traffic.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"sectorpack/internal/core"
	"sectorpack/internal/daemon"
	"sectorpack/internal/gen"
	"sectorpack/internal/model"
	"sectorpack/internal/sectorclient"
)

// fleetBackend is one real daemon served over TCP on a stable port, so
// tests can kill it (connection refused, not an HTTP error) and bring it
// back on the same address.
type fleetBackend struct {
	addr    string
	handler http.Handler
	srv     *http.Server
}

func newFleetBackend(t *testing.T, shard string) *fleetBackend {
	t.Helper()
	s := daemon.NewServer(daemon.Config{
		Seed:        1,
		MaxInflight: 16,
		MaxTuples:   200_000,
		ShardName:   shard,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fb := &fleetBackend{addr: ln.Addr().String(), handler: s.Handler()}
	fb.start(t, ln)
	t.Cleanup(fb.stop)
	return fb
}

func (fb *fleetBackend) start(t *testing.T, ln net.Listener) {
	t.Helper()
	fb.srv = &http.Server{Handler: fb.handler}
	go fb.srv.Serve(ln)
}

func (fb *fleetBackend) stop() {
	if fb.srv != nil {
		fb.srv.Close()
		fb.srv = nil
	}
}

// restart rebinds the backend's original port. The port was just freed by
// stop, but the OS may lag; retry briefly.
func (fb *fleetBackend) restart(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err := net.Listen("tcp", fb.addr)
		if err == nil {
			fb.start(t, ln)
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebind %s: %v", fb.addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func (fb *fleetBackend) url() string { return "http://" + fb.addr }

// startFleet boots n backends (shards s0..s(n-1)) and a proxy over them.
func startFleet(t *testing.T, n int) ([]*fleetBackend, *Proxy, *httptest.Server) {
	t.Helper()
	backends := make([]*fleetBackend, n)
	urls := make([]string, n)
	for i := range backends {
		backends[i] = newFleetBackend(t, fmt.Sprintf("s%d", i))
		urls[i] = backends[i].url()
	}
	p := NewProxy(ProxyConfig{
		Backends:        urls,
		EjectAfter:      1,
		ReprobeInterval: 50 * time.Millisecond,
		Seed:            1,
		MaxTuples:       200_000,
		// No transient-status retries: tests want the backend's first
		// honest answer, and transport failures should fail over at once.
		Client: sectorclient.Options{MaxRetries: -1, Timeout: 10 * time.Second},
	})
	p.Start()
	t.Cleanup(p.Close)
	ts := httptest.NewServer(p.Handler())
	t.Cleanup(ts.Close)
	return backends, p, ts
}

func post(t *testing.T, url string, body []byte) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw, resp.Header
}

// normalized decodes a response body and strips the timing field — the
// only legitimately nondeterministic part of a daemon answer.
func normalized(t *testing.T, raw []byte) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("bad response JSON: %v\n%s", err, raw)
	}
	delete(m, "elapsed_ms")
	return m
}

func solveBodyFor(t *testing.T, solver string, in *model.Instance) []byte {
	t.Helper()
	body, err := json.Marshal(map[string]any{
		"format_version": 1, "solver": solver, "instance": in,
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func fleetInstances(t *testing.T) []*model.Instance {
	t.Helper()
	var out []*model.Instance
	for i, cfg := range []gen.Config{
		{Family: gen.Uniform, Seed: 11, N: 30, M: 4},
		{Family: gen.Hotspot, Seed: 12, N: 40, M: 4},
		{Family: gen.Uniform, Seed: 13, N: 24, M: 3, Variant: model.DisjointAngles},
	} {
		in, err := gen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		in.Name = fmt.Sprintf("fleet-%d", i)
		out = append(out, in)
	}
	return out
}

// TestFleetDifferentialAllSolvers is the headline: for every registry
// solver and a spread of instances, the proxied answer — status AND body,
// success or error — is identical to asking a backend directly.
func TestFleetDifferentialAllSolvers(t *testing.T) {
	backends, _, proxy := startFleet(t, 3)
	instances := fleetInstances(t)
	shards := map[string]bool{}
	for _, solver := range core.Names() {
		for _, in := range instances {
			body := solveBodyFor(t, solver, in)
			dStatus, dRaw, _ := post(t, backends[0].url()+"/solve", body)
			pStatus, pRaw, pHdr := post(t, proxy.URL+"/solve", body)
			if dStatus != pStatus {
				t.Errorf("%s/%s: direct status %d, proxied %d", solver, in.Name, dStatus, pStatus)
				continue
			}
			if d, p := normalized(t, dRaw), normalized(t, pRaw); !reflect.DeepEqual(d, p) {
				t.Errorf("%s/%s: proxied answer differs from direct\ndirect:  %v\nproxied: %v", solver, in.Name, d, p)
			}
			if shard := pHdr.Get("X-Sectord-Shard"); shard == "" {
				t.Errorf("%s/%s: proxied response carries no shard attribution", solver, in.Name)
			} else {
				shards[shard] = true
			}
		}
	}
	if len(shards) < 2 {
		t.Errorf("all %d solver×instance answers came from shards %v; the ring is not spreading", len(core.Names())*len(instances), shards)
	}
}

// TestFleetPermutedDuplicateKeepsShardAndCache pins the routing key
// choice: a permuted duplicate of an instance must land on the same shard
// (the canonical fingerprint is order-insensitive) and hit its cache.
func TestFleetPermutedDuplicateKeepsShardAndCache(t *testing.T) {
	_, _, proxy := startFleet(t, 3)
	in, err := gen.Generate(gen.Config{Family: gen.Uniform, Seed: 21, N: 40, M: 4})
	if err != nil {
		t.Fatal(err)
	}
	status, _, hdr := post(t, proxy.URL+"/solve", solveBodyFor(t, "greedy", in))
	if status != http.StatusOK {
		t.Fatalf("first solve: status %d", status)
	}
	home := hdr.Get("X-Sectord-Shard")

	perm := &model.Instance{Variant: in.Variant, Antennas: in.Antennas}
	perm.Customers = append([]model.Customer(nil), in.Customers...)
	rand.New(rand.NewSource(5)).Shuffle(len(perm.Customers), func(i, j int) {
		perm.Customers[i], perm.Customers[j] = perm.Customers[j], perm.Customers[i]
	})
	status, _, hdr = post(t, proxy.URL+"/solve", solveBodyFor(t, "greedy", perm))
	if status != http.StatusOK {
		t.Fatalf("permuted solve: status %d", status)
	}
	if got := hdr.Get("X-Sectord-Shard"); got != home {
		t.Errorf("permuted duplicate routed to shard %q, want home shard %q", got, home)
	}
	if got := hdr.Get("X-Sectord-Cache"); got != "hit" {
		t.Errorf("permuted duplicate X-Sectord-Cache = %q, want \"hit\" (fingerprint routing should land on the warm LRU)", got)
	}
}

// TestFleetBackendKillRebalanceReadmit kills a backend mid-run: traffic
// must fail over with byte-identical answers, the victim must be ejected,
// and after restart the re-probe must put it back to work.
func TestFleetBackendKillRebalanceReadmit(t *testing.T) {
	backends, p, proxy := startFleet(t, 3)
	// The ring hashes backend URLs, whose ports are ephemeral, so which
	// bodies backend 1 owns changes from run to run. Take at least 12
	// bodies and keep drawing until the proxy's own ring pick gives
	// backend 1 one of them: the kill below must cost it traffic.
	var bodies [][]byte
	owned := false
	for seed := int64(100); len(bodies) < 12 || !owned; seed++ {
		if seed == 400 {
			t.Fatal("no body in 300 seeds routes to backend 1")
		}
		in, err := gen.Generate(gen.Config{Family: gen.Uniform, Seed: seed, N: 30, M: 4})
		if err != nil {
			t.Fatal(err)
		}
		body := solveBodyFor(t, "greedy", in)
		if p.pickBackends(p.solveRoutingKey(body))[0] == p.backends[1] {
			owned = true
		} else if len(bodies) >= 12 {
			continue
		}
		bodies = append(bodies, body)
	}
	pass := func(label string) []map[string]any {
		out := make([]map[string]any, len(bodies))
		for i, body := range bodies {
			status, raw, _ := post(t, proxy.URL+"/solve", body)
			if status != http.StatusOK {
				t.Fatalf("%s: solve %d: status %d\n%s", label, i, status, raw)
			}
			out[i] = normalized(t, raw)
		}
		return out
	}

	before := pass("all-up")
	backends[1].stop()
	during := pass("backend-1-dead")
	for i := range before {
		if !reflect.DeepEqual(before[i], during[i]) {
			t.Errorf("solve %d changed its answer when backend 1 died:\nbefore: %v\nafter:  %v", i, before[i], during[i])
		}
	}
	if !p.backends[1].down.Load() {
		t.Error("backend 1 took traffic losses but was never ejected")
	}

	backends[1].restart(t)
	deadline := time.Now().Add(5 * time.Second)
	for p.backends[1].down.Load() {
		if time.Now().After(deadline) {
			t.Fatal("backend 1 restarted but the re-probe never readmitted it")
		}
		time.Sleep(20 * time.Millisecond)
	}
	after := pass("readmitted")
	for i := range before {
		if !reflect.DeepEqual(before[i], after[i]) {
			t.Errorf("solve %d changed its answer across eject/readmit:\nbefore: %v\nafter:  %v", i, before[i], after[i])
		}
	}
}
