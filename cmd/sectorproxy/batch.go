// Batch routing: POST /solve/batch is split per item — each instance
// routes by its OWN canonical fingerprint to its home shard — solved as
// one sub-batch per backend, and re-assembled in the original request
// order. The split preserves each item's raw JSON bytes (the routing
// decode happens on private copies), so the backend solves exactly what
// the client sent; the re-assembly rewrites only each item's index field
// and leaves every other field's bytes untouched.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"sectorpack/internal/model"
	"sectorpack/internal/sweep"
)

// batchEnvelope is the decoded /solve/batch body with the per-item raw
// bytes preserved for faithful re-forwarding. decoded holds the items'
// instances when the canonical decoder read the body, and is nil when
// encoding/json did (each item is then decoded for routing on its own).
type batchEnvelope struct {
	Solver        string            `json:"solver"`
	Seed          *int64            `json:"seed,omitempty"`
	TimeoutMillis int64             `json:"timeout_ms,omitempty"`
	FormatVersion int               `json:"format_version"`
	Instances     []json.RawMessage `json:"instances"`
	decoded       []*model.Instance
}

// parseBatchEnvelope decodes a /solve/batch body for splitting.
func parseBatchEnvelope(body []byte) (batchEnvelope, error) {
	if req, items, ok := model.ParseBatchRequest(body); ok {
		return batchEnvelope{Solver: req.Solver, Seed: req.Seed, TimeoutMillis: req.TimeoutMillis,
			FormatVersion: req.FormatVersion, Instances: items, decoded: req.Instances}, nil
	}
	var env batchEnvelope
	err := json.Unmarshal(body, &env)
	return env, err
}

// subBatch is the slice of a batch bound for one backend.
type subBatch struct {
	b       *backend
	items   []json.RawMessage
	indices []int // original positions of items, in order
}

// subResult is one backend's answer (or transport failure) for its slice.
type subResult struct {
	sub   *subBatch
	resp  *rawBatchResponse
	shard string // the backend's X-Sectord-Shard, if it stamps one
	err   error
}

// rawBatchResponse decodes a backend batch reply keeping item bytes raw.
type rawBatchResponse struct {
	Solver   string            `json:"solver"`
	OK       int               `json:"ok"`
	Failed   int               `json:"failed"`
	Degraded int               `json:"degraded"`
	Items    []json.RawMessage `json:"items"`
}

func (p *Proxy) handleBatch(w http.ResponseWriter, r *http.Request) {
	p.requests.Add(1)
	start := time.Now()
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	env, err := parseBatchEnvelope(body)
	if err != nil || len(env.Instances) == 0 {
		// Not a splittable batch: route the whole body by raw bytes and let
		// the owning backend produce the decode/validation error the daemon
		// would have produced directly.
		b, resp, ferr := p.forward(r.Context(), "raw:"+string(body), http.MethodPost, pathWithQuery(r, "/solve/batch"), body)
		if ferr != nil {
			p.writeForwardError(w, "/solve/batch", ferr)
			return
		}
		p.relay(w, "batch", b, resp, start)
		return
	}

	subs, routeErr := p.splitBatch(env)
	if routeErr != nil {
		p.writeNoBackend(w)
		return
	}
	if len(subs) == 1 {
		// Whole batch lives on one shard: plain passthrough, no re-assembly.
		sub := subs[0]
		resp, err := p.send(r.Context(), sub.b, http.MethodPost, pathWithQuery(r, "/solve/batch"), body)
		if err != nil {
			p.writeForwardError(w, "/solve/batch", err)
			return
		}
		p.relay(w, "batch", sub.b, resp, start)
		return
	}

	results := p.solveSubBatches(r, env, subs)

	// Re-assemble in request order. A sub-batch whose backend failed at the
	// transport level (after sectorclient retries and with no failover —
	// moving items to another shard would still answer them, but then the
	// response would depend on failure timing; per-item errors keep the
	// split deterministic) lands as per-item errors, matching the daemon's
	// own fail-soft batch semantics.
	items := make([]json.RawMessage, len(env.Instances))
	okCount, failed, degraded := 0, 0, 0
	var shards []string
	for _, res := range results {
		if res.shard != "" {
			shards = append(shards, res.shard)
		}
		if res.err != nil || res.resp == nil {
			msg := "backend unreachable"
			if res.err != nil {
				msg = "backend unreachable: " + res.err.Error()
			}
			for _, orig := range res.sub.indices {
				items[orig] = errorItem(orig, msg)
				failed++
			}
			continue
		}
		okCount += res.resp.OK
		failed += res.resp.Failed
		degraded += res.resp.Degraded
		for i, raw := range res.resp.Items {
			if i >= len(res.sub.indices) {
				break
			}
			orig := res.sub.indices[i]
			items[orig] = reindexItem(raw, orig)
		}
		// A backend that returned fewer items than asked (cannot happen with
		// an honest daemon) leaves nil slots; fill them as errors below.
	}
	for i, it := range items {
		if it == nil {
			items[i] = errorItem(i, "backend returned no answer for this item")
			failed++
		}
	}

	solver := env.Solver
	if solver == "" {
		solver = "auto"
	}
	out := map[string]any{
		"solver":     solver,
		"count":      len(env.Instances),
		"ok":         okCount,
		"failed":     failed,
		"degraded":   degraded,
		"elapsed_ms": float64(time.Since(start)) / float64(time.Millisecond),
		"items":      items,
	}
	w.Header().Set("Content-Type", "application/json")
	// A split batch was served by several shards; attribute them all, in a
	// stable order, so per-shard accounting downstream keeps working.
	sort.Strings(shards)
	if len(shards) > 0 {
		w.Header().Set(shardHeader, strings.Join(shards, ","))
	}
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out)
}

// splitBatch groups the envelope's items by home shard. Items the proxy
// cannot fingerprint (bad item JSON) route by raw bytes so the owning
// backend produces the per-item error. Returns an error only when no
// backend is healthy.
func (p *Proxy) splitBatch(env batchEnvelope) ([]*subBatch, error) {
	byBackend := map[*backend]*subBatch{}
	var order []*subBatch
	for i, raw := range env.Instances {
		var in *model.Instance
		if env.decoded != nil {
			in = env.decoded[i]
		}
		key := p.itemRoutingKey(env.Solver, env.Seed, raw, in)
		candidates := p.pickBackends(key)
		if len(candidates) == 0 {
			return nil, errNoBackend
		}
		b := candidates[0]
		sub, ok := byBackend[b]
		if !ok {
			sub = &subBatch{b: b}
			byBackend[b] = sub
			order = append(order, sub)
		}
		sub.items = append(sub.items, raw)
		sub.indices = append(sub.indices, i)
	}
	return order, nil
}

// itemRoutingKey computes the routing key of one instance given its raw
// bytes and, when the canonical decoder already produced it, its value.
func (p *Proxy) itemRoutingKey(solver string, seed *int64, raw json.RawMessage, in *model.Instance) string {
	if in == nil {
		if err := json.Unmarshal(raw, &in); err != nil || in == nil {
			return "raw:" + string(raw)
		}
	}
	return p.instanceRoutingKey(in, solver, seed, raw)
}

// solveSubBatches fans the sub-batches out concurrently (one request per
// backend, on sweep.Each) and waits for all of them; the re-assembly needs
// every slice. A sub-batch not started before the client went away
// reports the cancellation.
func (p *Proxy) solveSubBatches(r *http.Request, env batchEnvelope, subs []*subBatch) []subResult {
	ctx := r.Context()
	path := pathWithQuery(r, "/solve/batch")
	results := make([]subResult, len(subs))
	err := sweep.Each(ctx, len(subs), len(subs), sweep.NoState, func(_ struct{}, si int) error {
		results[si] = p.solveSubBatch(ctx, path, env, subs[si])
		return nil
	})
	for si := range results {
		if results[si].sub == nil {
			results[si] = subResult{sub: subs[si], err: err}
		}
	}
	return results
}

// solveSubBatch sends one backend its slice of the batch.
func (p *Proxy) solveSubBatch(ctx context.Context, path string, env batchEnvelope, sub *subBatch) subResult {
	body, err := json.Marshal(map[string]any{
		"solver":         env.Solver,
		"seed":           env.Seed,
		"timeout_ms":     env.TimeoutMillis,
		"format_version": env.FormatVersion,
		"instances":      sub.items,
	})
	if err != nil {
		return subResult{sub: sub, err: err}
	}
	p.splits.Add(1)
	resp, err := p.send(ctx, sub.b, http.MethodPost, path, body)
	if err != nil {
		return subResult{sub: sub, err: err}
	}
	if resp.Status != http.StatusOK {
		return subResult{sub: sub, err: fmt.Errorf("backend %s: status %d: %s", sub.b.name, resp.Status, truncate(resp.Body, 200))}
	}
	var rb rawBatchResponse
	if err := json.Unmarshal(resp.Body, &rb); err != nil {
		return subResult{sub: sub, err: fmt.Errorf("backend %s: bad batch response: %w", sub.b.name, err)}
	}
	shard := resp.Header.Get(shardHeader)
	if shard == "" {
		shard = sub.b.name
	}
	return subResult{sub: sub, resp: &rb, shard: shard}
}

// reindexItem rewrites an item's index field to its position in the
// original request, leaving every other field's bytes untouched (values
// stay raw, so float spellings survive the round trip).
func reindexItem(raw json.RawMessage, index int) json.RawMessage {
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		return raw
	}
	fields["index"] = json.RawMessage(strconv.Itoa(index))
	out, err := json.Marshal(fields)
	if err != nil {
		return raw
	}
	return out
}

func errorItem(index int, msg string) json.RawMessage {
	out, _ := json.Marshal(map[string]any{"index": index, "error": msg})
	return out
}

func truncate(b []byte, n int) string {
	if len(b) > n {
		b = b[:n]
	}
	return string(b)
}
