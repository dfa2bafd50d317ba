// Batch differential: a proxied /solve/batch routes whole to one shard,
// so the suite pins that its reply — status, envelope, items in request
// order with their per-item fields and errors — is the one a backend
// gives directly, for valid batches and rejected envelopes alike.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"testing"
	"time"

	"sectorpack/internal/core"
	"sectorpack/internal/gen"
	"sectorpack/internal/model"
)

func batchBodyFor(t *testing.T, solver string, instances []*model.Instance) []byte {
	t.Helper()
	body, err := json.Marshal(map[string]any{
		"format_version": 1, "solver": solver, "instances": instances,
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func decodeBatch(t *testing.T, raw []byte) (map[string]any, []map[string]any) {
	t.Helper()
	env := normalized(t, raw)
	rawItems, ok := env["items"].([]any)
	if !ok {
		t.Fatalf("batch response has no items array:\n%s", raw)
	}
	items := make([]map[string]any, len(rawItems))
	for i, it := range rawItems {
		m, ok := it.(map[string]any)
		if !ok {
			t.Fatalf("item %d is not an object:\n%s", i, raw)
		}
		items[i] = m
	}
	delete(env, "items")
	return env, items
}

// stripItemVariance removes the per-item fields that legitimately differ
// between the proxied and the direct run: timing always, and cache
// disposition (the direct backend's LRU history differs from the routed
// shard's).
func stripItemVariance(items []map[string]any) {
	for _, it := range items {
		delete(it, "elapsed_ms")
		delete(it, "cache")
	}
}

// normalizedBatch is normalized for a /solve/batch reply: it also strips
// each item's variance, when the reply has items.
func normalizedBatch(t *testing.T, raw []byte) map[string]any {
	t.Helper()
	env := normalized(t, raw)
	items, _ := env["items"].([]any)
	for _, it := range items {
		if m, ok := it.(map[string]any); ok {
			stripItemVariance([]map[string]any{m})
		}
	}
	return env
}

// TestFleetBatchMatchesDirect pins every batch, valid or rejected, to the
// direct backend's answer: the same status and, timing and cache
// disposition aside, the same body.
func TestFleetBatchMatchesDirect(t *testing.T) {
	backends, _, proxy := startFleet(t, 3)
	var instances []*model.Instance
	for i := 0; i < 8; i++ {
		in, err := gen.Generate(gen.Config{Family: gen.Uniform, Seed: int64(200 + i), N: 24, M: 3})
		if err != nil {
			t.Fatal(err)
		}
		instances = append(instances, in)
	}
	// Duplicates of earlier items: they must come back at THEIR positions,
	// not their twin's, and they exercise the within-batch cache path.
	withDuplicates := append(slices.Clone(instances), instances[0], instances[3])
	bad, err := gen.Generate(gen.Config{Family: gen.Uniform, Seed: 210, N: 24, M: 3})
	if err != nil {
		t.Fatal(err)
	}
	bad.Customers[0].Demand = -5 // invalid: fails daemon-side validation
	tiny, err := gen.Generate(gen.Config{Family: gen.Uniform, Seed: 220, N: 3, M: 1})
	if err != nil {
		t.Fatal(err)
	}
	oversized := make([]*model.Instance, 257)
	for i := range oversized {
		oversized[i] = tiny
	}
	// envelope is the 8-instance greedy batch with one field changed.
	envelope := func(key string, value any) []byte {
		env := map[string]any{"format_version": 1, "solver": "greedy", "instances": instances}
		env[key] = value
		body, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"valid with duplicates", batchBodyFor(t, "greedy", withDuplicates)},
		{"one bad item", batchBodyFor(t, "greedy", []*model.Instance{instances[0], bad, instances[1]})},
		{"unknown top-level key", envelope("bogus", true)},
		{"format_version 2", envelope("format_version", 2)},
		{"unknown solver", envelope("solver", "no-such-solver")},
		{"empty instances", batchBodyFor(t, "greedy", []*model.Instance{})},
		{"257 instances", batchBodyFor(t, "greedy", oversized)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dStatus, dRaw, _ := post(t, backends[0].url()+"/solve/batch", tc.body)
			pStatus, pRaw, pHeader := post(t, proxy.URL+"/solve/batch", tc.body)
			if pStatus != dStatus {
				t.Fatalf("proxied status %d, direct status %d\ndirect:  %s\nproxied: %s", pStatus, dStatus, dRaw, pRaw)
			}
			if d, p := normalizedBatch(t, dRaw), normalizedBatch(t, pRaw); !reflect.DeepEqual(d, p) {
				t.Errorf("proxied batch reply differs from direct:\ndirect:  %v\nproxied: %v", d, p)
			}
			if pStatus == http.StatusOK && pHeader.Get("X-Sectord-Cache") == "" {
				t.Error("proxied 200 batch reply lacks X-Sectord-Cache")
			}
		})
	}
}

func TestFleetBatchRepeatHitsEveryShardCache(t *testing.T) {
	_, _, proxy := startFleet(t, 3)
	var instances []*model.Instance
	for i := 0; i < 6; i++ {
		in, err := gen.Generate(gen.Config{Family: gen.Zipf, Seed: int64(300 + i), N: 30, M: 3})
		if err != nil {
			t.Fatal(err)
		}
		instances = append(instances, in)
	}
	body := batchBodyFor(t, "greedy", instances)
	if status, _, _ := post(t, proxy.URL+"/solve/batch", body); status != http.StatusOK {
		t.Fatalf("warm-up batch: status %d", status)
	}
	status, raw, _ := post(t, proxy.URL+"/solve/batch", body)
	if status != http.StatusOK {
		t.Fatalf("repeat batch: status %d", status)
	}
	_, items := decodeBatch(t, raw)
	for i, it := range items {
		if got, _ := it["cache"].(string); got != "hit" {
			t.Errorf("repeat batch item %d cache = %q, want \"hit\" — per-item cache provenance must survive the proxy", i, got)
		}
	}
}

func TestFleetBatchBadItemKeepsPositionAndError(t *testing.T) {
	backends, _, proxy := startFleet(t, 3)
	good, err := gen.Generate(gen.Config{Family: gen.Uniform, Seed: 400, N: 20, M: 3})
	if err != nil {
		t.Fatal(err)
	}
	bad, err := gen.Generate(gen.Config{Family: gen.Uniform, Seed: 401, N: 20, M: 3})
	if err != nil {
		t.Fatal(err)
	}
	bad.Customers[0].Demand = -5 // invalid: fails daemon-side validation
	instances := []*model.Instance{good, bad, good}
	body := batchBodyFor(t, "greedy", instances)

	_, dRaw, _ := post(t, backends[0].url()+"/solve/batch", body)
	pStatus, pRaw, _ := post(t, proxy.URL+"/solve/batch", body)
	if pStatus != http.StatusOK {
		t.Fatalf("batch with one bad item: status %d, want 200 with a per-item error", pStatus)
	}
	dEnv, dItems := decodeBatch(t, dRaw)
	pEnv, pItems := decodeBatch(t, pRaw)
	//sectorlint:ignore floateq JSON decodes the failed count as float64; small integer counts are exact
	if dEnv["failed"] != pEnv["failed"] || pEnv["failed"].(float64) != 1 {
		t.Errorf("failed counts: direct %v, proxied %v, want 1", dEnv["failed"], pEnv["failed"])
	}
	if msg, _ := pItems[1]["error"].(string); msg == "" {
		t.Errorf("bad item lost its error through the proxy: %v", pItems[1])
	}
	stripItemVariance(dItems)
	stripItemVariance(pItems)
	for i := range dItems {
		if !reflect.DeepEqual(dItems[i], pItems[i]) {
			t.Errorf("item %d differs:\ndirect:  %v\nproxied: %v", i, dItems[i], pItems[i])
		}
	}
}

// TestFleetBatchClientCancelKeepsBackend is the regression test for a
// /solve/batch whose client hangs up mid-solve: the aborted backend
// request says nothing about the backend's health, so it must not count
// as a failure — with EjectAfter 1, counting it would eject a healthy
// shard.
func TestFleetBatchClientCancelKeepsBackend(t *testing.T) {
	started := make(chan struct{}, 1)
	core.Register("test-proxy-park", func(ctx context.Context, in *model.Instance, opt core.Options) (model.Solution, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-ctx.Done()
		return model.Solution{}, ctx.Err()
	})
	t.Cleanup(func() { core.Unregister("test-proxy-park") })

	_, p, _ := startFleet(t, 1) // one shard: the batch lands on the backend checked below
	handled := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		p.Handler().ServeHTTP(w, r)
		if r.URL.Path == "/solve/batch" {
			close(handled)
		}
	}))
	defer ts.Close()

	in, err := gen.Generate(gen.Config{Family: gen.Uniform, Seed: 5, N: 12, M: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/solve/batch",
		bytes.NewReader(batchBodyFor(t, "test-proxy-park", []*model.Instance{in})))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("the batch never reached the backend's solver")
	}
	cancel()
	select {
	case <-handled:
	case <-time.After(10 * time.Second):
		t.Fatal("the proxy never finished the abandoned batch")
	}

	b := p.backends[0]
	if b.down.Load() {
		t.Error("a client disconnect ejected the healthy backend")
	}
	resp, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	vars := map[string]json.RawMessage{}
	if err := json.Unmarshal(raw, &vars); err != nil {
		t.Fatalf("/debug/vars: %v\n%s", err, raw)
	}
	var stats struct {
		State    string `json:"state"`
		Failures int64  `json:"failures"`
	}
	if err := json.Unmarshal(vars["sectorproxy.backend."+b.name], &stats); err != nil {
		t.Fatalf("backend stats: %v\n%s", err, raw)
	}
	if stats.Failures != 0 || stats.State != "up" {
		t.Errorf("backend after a client disconnect: state %q, failures %d; want up with 0 failures", stats.State, stats.Failures)
	}
}
