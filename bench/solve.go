package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"sectorpack/internal/cache"
	"sectorpack/internal/core"
	"sectorpack/internal/exact"
	"sectorpack/internal/gen"
	"sectorpack/internal/model"
)

// daemonOptions are the solve options sectord derives for a request that
// names no seed, given the flags the benchmark starts it with. In-process
// reference solves use them so answers compare bit for bit.
var daemonOptions = core.Options{Seed: 1, ExactLimits: exact.Limits{MaxTuples: 200_000}}

// daemonFlags start sectord (and sectorproxy's routing) with daemonOptions.
var daemonFlags = []string{"-seed", "1", "-max-tuples", "200000"}

// solveRequest is the body of POST /solve as the benchmark sends it: no
// solver (the daemon's default, auto) and no seed (the daemon's -seed).
type solveRequest struct {
	FormatVersion int             `json:"format_version"`
	Instance      *model.Instance `json:"instance"`
}

// solveResponse mirrors the daemon's /solve answer.
type solveResponse struct {
	Solver      string    `json:"solver"`
	Algorithm   string    `json:"algorithm"`
	Profit      int64     `json:"profit"`
	UpperBound  float64   `json:"upper_bound,omitempty"`
	Orientation []float64 `json:"orientation"`
	Owner       []int     `json:"owner"`
	ElapsedMS   float64   `json:"elapsed_ms"`
}

func newSolveResponse(solver string, sol model.Solution) solveResponse {
	return solveResponse{
		Solver: solver, Algorithm: sol.Algorithm, Profit: sol.Profit, UpperBound: sol.UpperBound,
		Orientation: sol.Assignment.Orientation, Owner: sol.Assignment.Owner,
	}
}

// encodeLikeDaemon encodes v the way the daemon writes its responses.
func encodeLikeDaemon(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the mirrored response types always encode
	return buf.Bytes()
}

// solveBody is one generated /solve request.
type solveBody struct {
	raw  []byte
	in   *model.Instance // the instance as sent, normalized
	base int             // the body this one permutes; itself when it is no permutation
	perm []int           // perm[i] is the index in the base body of customer i; nil for the identity
}

func newSolveBody(in *model.Instance, base int, perm []int) (solveBody, error) {
	raw, err := json.Marshal(solveRequest{FormatVersion: 1, Instance: in})
	return solveBody{raw: raw, in: in, base: base, perm: perm}, err
}

// solveSpec describes a /solve workload.
type solveSpec struct {
	name    string
	body    func(i int) solveBody // the i-th distinct body; safe for concurrent use
	warm    int                   // bodies [0, warm) are each sent once during set-up
	pick    func(k int) int       // the body of the k-th request
	rate    float64               // open-loop requests per second
	closed  bool                  // an untraced run is a closed loop, not an open one at rate
	shards  int                   // sectord processes; more than one are fronted by sectorproxy
	tail    float64               // fixed tail percentile
	wantHit bool                  // valid only with a hit ratio ≥ 0.99 (true) or of 0 (false)
	refs    []int                 // bodies solved in-process for the answer oracle
}

// hotSpec: a small pool of distinct bodies, a quarter of the requests
// customer-order permutations of them, so after set-up every request is a
// cache hit.
func hotSpec(e *env) (*solveSpec, error) {
	p := e.p
	fams := gen.Families()
	sp := &solveSpec{name: "solve-hot", rate: p.hotRate, shards: 2, tail: 95, wantHit: true, warm: p.hotPool}
	var bodies []solveBody
	for i := 0; i < p.hotPool; i++ {
		n := p.hotN[0]
		if p.hotPool > 1 {
			n += i * (p.hotN[1] - p.hotN[0]) / (p.hotPool - 1)
		}
		in, err := gen.Generate(gen.Config{Family: fams[i%len(fams)], Seed: genSeed(e.seed, int64(i)), N: n, M: 4 + i%5})
		if err != nil {
			return nil, err
		}
		b, err := newSolveBody(in, i, nil)
		if err != nil {
			return nil, err
		}
		bodies = append(bodies, b)
		sp.refs = append(sp.refs, i)
	}
	for i := 0; i < p.hotPool; i++ {
		for v := 0; v < 2; v++ {
			base := bodies[i].in
			perm := rand.New(rand.NewSource(genSeed(e.seed, int64(1_000_000+2*i+v)))).Perm(base.N())
			in := base.Clone()
			for k, j := range perm {
				in.Customers[k] = base.Customers[j]
			}
			b, err := newSolveBody(in.Normalize(), i, perm)
			if err != nil {
				return nil, err
			}
			bodies = append(bodies, b)
		}
	}
	sp.body = func(i int) solveBody { return bodies[i] }
	pool := uint64(p.hotPool)
	sp.pick = func(k int) int {
		i := int(splitmix(e.seed, int64(k)) % pool)
		if k%4 == 3 {
			return p.hotPool + 2*i + (k/4)%2
		}
		return i
	}
	return sp, nil
}

// coldFamilies are the generator families solve-cold cycles through.
var coldFamilies = []gen.Family{gen.Uniform, gen.Hotspot, gen.Zipf, gen.Rings}

// coldSpec: every request a distinct instance, so every request misses the
// cache. Sizes and families cycle so every run has the same mix. The pool
// the requests vary is the same for every seed, since two pools drawn from
// different seeds differ in what a solve costs by more than a tenth; the
// seed draws how each request varies its pool instance.
func coldSpec(e *env) (*solveSpec, error) {
	p := e.p
	pool := make([]*model.Instance, p.coldPool)
	for k := range pool {
		n := p.coldN[k%len(p.coldN)]
		fam := coldFamilies[(k/len(p.coldN))%len(coldFamilies)]
		in, err := gen.Generate(gen.Config{Family: fam, Seed: int64(1 + k), N: n, M: 8})
		if err != nil {
			return nil, err
		}
		pool[k] = in.Normalize()
	}
	sp := &solveSpec{name: "solve-cold", rate: p.coldRate, closed: true, shards: 1, tail: 95}
	sp.body = func(k int) solveBody { return coldBody(pool, e.seed, k) }
	sp.pick = func(k int) int { return k }
	for k := 0; k < len(p.coldN)*len(coldFamilies) && k < len(pool); k++ {
		sp.refs = append(sp.refs, k)
	}
	return sp, nil
}

// coldBody is solve-cold's k-th body: pool instance k mod len(pool) with the
// profit of one customer raised, by another customer or amount for each k,
// so no two bodies share a cache fingerprint and each costs what its pool
// instance does. Bodies are made as they are sent, since a closed loop on a
// fast host can send more than could be made beforehand.
func coldBody(pool []*model.Instance, seed int64, k int) solveBody {
	base := k % len(pool)
	in := pool[base].Clone()
	n, r := in.N(), k/len(pool)
	c := (r + int(splitmix(seed, int64(base))%uint64(n))) % n
	in.Customers[c].Profit += int64(1 + r/n)
	// An encoding error leaves the body empty, which the daemon rejects, so
	// it counts as a failed request.
	b, _ := newSolveBody(in, k, nil)
	return b
}

func runSolveHot(ctx context.Context, e *env) (*result, error) {
	sp, err := hotSpec(e)
	if err != nil {
		return nil, err
	}
	return runSolve(ctx, e, sp)
}

func runSolveCold(ctx context.Context, e *env) (*result, error) {
	sp, err := coldSpec(e)
	if err != nil {
		return nil, err
	}
	return runSolve(ctx, e, sp)
}

// fleet is the set of server processes one run talks to.
type fleet struct {
	servers []*server         // shards first, the proxy (if any) last
	front   string            // base URL the load is sent to
	shards  map[string]string // shard name → base URL
	warm    []sample          // set-up answers, checked by the oracle
}

func (f *fleet) stop() { stopAll(f.servers) }

// startDaemons starts n sectord processes named s0…s(n-1).
func startDaemons(ctx context.Context, e *env, n int, extra ...string) (*fleet, error) {
	f := &fleet{shards: map[string]string{}}
	for i := 0; i < n; i++ {
		name := "s" + strconv.Itoa(i)
		args := append([]string{"-max-inflight", strconv.Itoa(max(4, e.nproc)), "-shard", name}, daemonFlags...)
		s, err := startServer(e.dir, "sectord-"+name, e.bin+"/sectord", append(args, extra...)...)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.servers = append(f.servers, s)
		f.shards[name] = s.url
		f.front = s.url
	}
	for _, s := range f.servers {
		if err := awaitHealthy(ctx, e.hc, s.url); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

// startSolveFleet is the /solve set-up: the daemons, the proxy when there
// is more than one shard, and the warm-up pass.
func startSolveFleet(ctx context.Context, e *env, sp *solveSpec) (*fleet, error) {
	f, err := startDaemons(ctx, e, sp.shards)
	if err != nil {
		return nil, err
	}
	if sp.shards > 1 {
		backends := ""
		for i, s := range f.servers {
			if i > 0 {
				backends += ","
			}
			backends += s.url
		}
		px, err := startServer(e.dir, "sectorproxy", e.bin+"/sectorproxy", append([]string{"-backends", backends}, daemonFlags...)...)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.servers = append(f.servers, px)
		f.front = px.url
		if err := awaitHealthy(ctx, e.hc, px.url); err != nil {
			f.stop()
			return nil, err
		}
	}
	for i := 0; i < sp.warm; i++ {
		s, err := call(ctx, e.hc, "POST", f.front+"/solve", sp.body(i).raw)
		if err != nil {
			f.stop()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		s.input = i
		f.warm = append(f.warm, *s)
	}
	return f, nil
}

func solveRequestOf(f *fleet, sp *solveSpec, i int) request {
	return request{method: "POST", url: f.front + "/solve", body: sp.body(i).raw, input: i}
}

func runSolve(ctx context.Context, e *env, sp *solveSpec) (*result, error) {
	res := &result{workload: sp.name, tail: sp.tail}
	f, setups, err := repeatSetup(e, func(int) (*fleet, error) { return startSolveFleet(ctx, e, sp) })
	if err != nil {
		return nil, err
	}
	defer f.stop()
	if e.traced() {
		return traceSolve(ctx, e, sp, f, res)
	}

	// solve-hot runs open: in a closed loop the servers' CPU per request
	// follows how fast the client turns requests around, which on a shared
	// host is the host. solve-cold runs closed: the rate it sustains varies
	// too much with the host for any fixed rate to stay below it.
	var k atomic.Int64 // position in the workload's request sequence
	var samples []sample
	var busy time.Duration
	m, err := measure(e, f.servers, func() error {
		var block []sample
		var err error
		if sp.closed {
			block, err = closedLoop(ctx, e.hc, e.nproc, e.seconds/runBlocks, func(_, _ int) (request, bool) {
				return solveRequestOf(f, sp, sp.pick(int(k.Add(1)-1))), true
			}, nil)
		} else {
			n := int(sp.rate * (e.seconds / runBlocks).Seconds())
			first := int(k.Add(int64(n))) - n
			block, err = openLoop(ctx, e.hc, sp.rate, n, func(i int) request {
				return solveRequestOf(f, sp, sp.pick(first+i))
			}, nil), ctx.Err()
		}
		samples, busy = append(samples, block...), busy+lastDone(block)
		return err
	})
	if err != nil {
		return nil, err
	}
	res.count(samples)
	res.setEndToEnd(summarize(samples, sp.tail), busy, m, setups)
	res.checkHits(sp, samples)

	refs, err := solveRefs(ctx, sp, sp.refs)
	if err != nil {
		return nil, err
	}
	res.checkSolveAnswers(sp, refs, append(f.warm, samples...))
	return res, nil
}

// solveRefs solves the given bodies in-process with the daemon's options.
func solveRefs(ctx context.Context, sp *solveSpec, idx []int) (map[int]*model.Solution, error) {
	auto, err := core.Get("auto")
	if err != nil {
		return nil, err
	}
	refs := map[int]*model.Solution{}
	for _, i := range idx {
		sol, err := auto(ctx, sp.body(i).in, daemonOptions)
		if err != nil {
			return nil, fmt.Errorf("in-process reference solve of body %d: %w", i, err)
		}
		refs[i] = &sol
	}
	return refs, nil
}

// checkHits applies the validity guard on the cache outcome: solve-hot
// must be served from the cache, solve-cold never.
func (r *result) checkHits(sp *solveSpec, samples []sample) {
	hits, oks := 0, 0
	for i := range samples {
		if samples[i].ok() {
			oks++
			if c := samples[i].cache; c == "hit" || c == "collapsed" {
				hits++
			}
		}
	}
	hr := ratio(float64(hits), float64(oks))
	switch {
	case sp.wantHit && hr < 0.99:
		r.invalidf("cache hit ratio %.4f < 0.99: %s is not exercising the hit path", hr, sp.name)
	case !sp.wantHit && hits > 0:
		r.invalidf("cache hit ratio %.4f > 0: %s is not exercising the miss path", hr, sp.name)
	}
}

// checkSolveAnswers is the /solve answer oracle: every 200 answer must pass
// core.VerifySolution against the instance sent, and an answer for a body
// with an in-process reference (or a permutation of one) must match its
// profit and owners.
func (r *result) checkSolveAnswers(sp *solveSpec, refs map[int]*model.Solution, samples []sample) {
	for i := range samples {
		s := &samples[i]
		if !s.ok() {
			continue
		}
		b := sp.body(s.input)
		if err := checkAnswer(s.body, b.in, refs[b.base], b.perm); err != nil {
			r.mismatchf("body %d: %v", s.input, err)
		}
	}
}

// checkAnswer rebuilds a /solve or session answer into a model.Solution
// and passes it through core.VerifySolution against the instance sent. With
// a reference, the answer's profit and owners must also equal it; perm maps
// a permuted instance's customers onto the reference's.
func checkAnswer(body []byte, in *model.Instance, ref *model.Solution, perm []int) error {
	var a solveResponse
	if err := json.Unmarshal(body, &a); err != nil {
		return fmt.Errorf("decode answer: %w", err)
	}
	sol := model.Solution{Profit: a.Profit, Assignment: &model.Assignment{Orientation: a.Orientation, Owner: a.Owner}}
	if err := core.VerifySolution(a.Solver, in, sol); err != nil {
		return err
	}
	if ref == nil {
		return nil
	}
	if a.Profit != ref.Profit {
		return fmt.Errorf("profit %d, in-process %d", a.Profit, ref.Profit)
	}
	for i, o := range a.Owner {
		j := i
		if perm != nil {
			j = perm[i]
		}
		if o != ref.Assignment.Owner[j] {
			return fmt.Errorf("customer %d owned by %d, in-process %d", i, o, ref.Assignment.Owner[j])
		}
	}
	return nil
}

// traceSolve is the traced run of a /solve workload: an untraced and a
// traced open-loop phase, the proxy-hop pairs, and the in-process replay.
func traceSolve(ctx context.Context, e *env, sp *solveSpec, f *fleet, res *result) (*result, error) {
	phase := e.seconds / 4
	count := max(1, int(sp.rate*phase.Seconds()))
	next := func(k int) request { return solveRequestOf(f, sp, sp.pick(k)) }
	plain := openLoop(ctx, e.hc, sp.rate, count, next, nil)
	failovers0, err := proxyFailovers(ctx, e, f)
	if err != nil {
		return nil, err
	}
	traced := openLoop(ctx, e.hc, sp.rate, count, func(k int) request { return next(count + k) },
		func(s *sample) { e.rec.clientSpan("client.solve", s) })
	failovers1, err := proxyFailovers(ctx, e, f)
	if err != nil {
		return nil, err
	}
	extra := loadLayers(traced)
	extra["proxy.failovers"] = failovers1 - failovers0
	extra["trace.overhead"] = ratio(summarize(traced, sp.tail).p50, summarize(plain, sp.tail).p50) - 1
	timed := append(plain, traced...)
	res.count(timed)
	res.checkHits(sp, timed)
	checked := append(f.warm, timed...)
	if sp.shards > 1 {
		hop, answers, err := hopPairs(ctx, e, sp, f)
		if err != nil {
			return nil, err
		}
		extra["proxy.hop_ms"] = hop
		checked = append(checked, answers...)
	}

	refs, err := replaySolve(ctx, e, sp)
	if err != nil {
		return nil, err
	}
	res.checkSolveAnswers(sp, refs, checked)
	res.setPerLayer(e.rec.snapshot(), extra)
	return res, nil
}

// proxyFailovers reads sectorproxy's failover counter; 0 without a proxy.
func proxyFailovers(ctx context.Context, e *env, f *fleet) (float64, error) {
	if len(f.servers) < 2 {
		return 0, nil
	}
	s, err := call(ctx, e.hc, "GET", f.front+"/debug/vars", nil)
	if err != nil {
		return 0, err
	}
	var vars map[string]any
	if err := json.Unmarshal(s.body, &vars); err != nil {
		return 0, fmt.Errorf("decode proxy vars: %w", err)
	}
	v, _ := vars["sectorproxy.failovers"].(float64)
	return v, nil
}

// hopPairs sends pool bodies through the proxy and straight to the shard
// that owns them, alternating which of the pair goes first, and returns the
// median paired difference in ms and the answers for the oracle.
func hopPairs(ctx context.Context, e *env, sp *solveSpec, f *fleet) (float64, []sample, error) {
	owner := make([]string, sp.warm)
	for i := range owner {
		s, err := call(ctx, e.hc, "POST", f.front+"/solve", sp.body(i).raw)
		if err != nil {
			return 0, nil, err
		}
		var ok bool
		if owner[i], ok = f.shards[s.shard]; !ok {
			return 0, nil, fmt.Errorf("proxy answered from unknown shard %q", s.shard)
		}
	}
	var diffs []float64
	var answers []sample
	for k := 0; k < e.p.hopPairs; k++ {
		i := k % sp.warm
		urls := []string{f.front, owner[i]}
		if k%2 == 1 {
			urls[0], urls[1] = urls[1], urls[0]
		}
		var lat [2]float64
		for j, u := range urls {
			s, err := call(ctx, e.hc, "POST", u+"/solve", sp.body(i).raw)
			if err != nil {
				return 0, nil, err
			}
			s.input = i
			lat[j] = ms(s.latency())
			answers = append(answers, *s)
		}
		if k%2 == 1 {
			lat[0], lat[1] = lat[1], lat[0]
		}
		diffs = append(diffs, lat[0]-lat[1])
	}
	return median(diffs), answers, nil
}

// replaySolve replays the first bodies of the request sequence in-process,
// one root span per body with a child span per public call, in the order
// the daemon makes them. It returns the in-process answers, which the
// oracle compares with the HTTP ones.
func replaySolve(ctx context.Context, e *env, sp *solveSpec) (map[int]*model.Solution, error) {
	rec := e.rec
	runtime.LockOSThread() // see replayDeltas
	defer runtime.UnlockOSThread()
	c := cache.New(0)
	refs := map[int]*model.Solution{}
	if sp.wantHit {
		// The daemon's cache holds the pool answers after set-up; so does
		// this one.
		var err error
		if refs, err = solveRefs(ctx, sp, sp.refs); err != nil {
			return nil, err
		}
		for _, i := range sp.refs {
			fp, err := cache.NewFingerprint(sp.body(i).in, daemonOptions, "auto")
			if err != nil {
				return nil, err
			}
			c.Put(fp, *refs[i])
		}
	}
	auto, err := core.Get("auto")
	if err != nil {
		return nil, err
	}
	noBound := daemonOptions
	noBound.SkipBound = true
	for k := 0; k < e.p.replaySolves; k++ {
		i := sp.pick(k)
		raw := sp.body(i).raw
		root := rec.root("solve", "replay-"+strconv.Itoa(k))
		var req solveRequest
		var err error
		rec.do(root, "model.decode", func() {
			dec := json.NewDecoder(bytes.NewReader(raw))
			dec.DisallowUnknownFields()
			if err = dec.Decode(&req); err == nil {
				err = req.Instance.Normalize().Validate()
			}
		})
		if err != nil {
			return nil, fmt.Errorf("replay body %d: %w", i, err)
		}
		in := req.Instance
		if sp.shards > 1 {
			rec.do(root, "cache.routing_key", func() { _, err = cache.RoutingKey(in, daemonOptions, "auto") })
			if err != nil {
				return nil, err
			}
		}
		var fp *cache.Fingerprint
		rec.do(root, "cache.fingerprint", func() { fp, err = cache.NewFingerprint(in, daemonOptions, "auto") })
		if err != nil {
			return nil, err
		}
		var sol model.Solution
		var hit bool
		rec.do(root, "cache.get", func() { sol, hit = c.Get(fp) })
		if !hit {
			rec.do(root, "core.solve", func() { sol, err = auto(ctx, in, noBound) })
			if err != nil {
				return nil, fmt.Errorf("replay solve of body %d: %w", i, err)
			}
			rec.do(root, "core.upper_bound", func() { sol.UpperBound = core.UpperBound(in) })
		}
		rec.do(root, "core.verify", func() { err = core.VerifySolution("auto", in, sol) })
		if err != nil {
			return nil, err
		}
		if !hit {
			rec.do(root, "cache.put", func() { c.Put(fp, sol) })
			refs[i] = &sol
		}
		rec.do(root, "daemon.encode", func() { encodeLikeDaemon(newSolveResponse("auto", sol)) })
		rec.end(root)
	}
	return refs, nil
}
