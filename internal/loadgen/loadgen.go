// Package loadgen drives a sectord or sectorproxy endpoint over the real
// HTTP path and measures what a client would feel: latency percentiles,
// shed/degraded/error rates, and per-shard cache behaviour.
//
// The loop is open: request k is sent at its due time t0 + k/RPS however
// many are still in flight, and its latency is timed from that due time.
// A stall that holds up later requests — in the server, or in the wait
// for one of the client's connections — is charged to every request it
// delays, the way real arrivals would feel it, instead of being omitted
// from the tail.
//
// The workload is a seeded pool of pre-generated instances mixed across
// internal/gen families and sizes. The pool is deliberately smaller than
// the request count: repeats are what exercise the solve cache, and with
// a fingerprint-routing proxy in front they also pin that repeats land
// on the same shard (visible in the per-shard hit ratios the report
// breaks out by X-Sectord-Shard).
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"time"

	"sectorpack/internal/gen"
	"sectorpack/internal/model"
	"sectorpack/internal/stats"
)

const (
	seed        = 1                // pool contents, tier choices and order
	poolSize    = 32               // distinct request bodies
	batchEvery  = 8                // every 8th pool slot is a /solve/batch
	batchSize   = 4                // instances per batch
	conns       = 8                // connections per host
	timeout     = 30 * time.Second // per request
	verifyEvery = 8                // OK answers per verified /solve
)

// tier is one entry of the workload mix: a gen preset and its relative
// weight in the pool.
type tier struct {
	name   string
	cfg    gen.Config
	weight int
}

// mix spans the generator families at sizes every registry solver
// (including exact) answers in milliseconds, so a short SLO run exercises
// the full solver matrix rather than one hot path.
var mix = []tier{
	{"uniform-small", gen.Config{Family: gen.Uniform, N: 60, M: 6}, 4},
	{"hotspot-small", gen.Config{Family: gen.Hotspot, N: 80, M: 6}, 3},
	{"zipf-medium", gen.Config{Family: gen.Zipf, N: 150, M: 8}, 2},
	{"rings-small", gen.Config{Family: gen.Rings, N: 60, M: 6}, 2},
	{"adversarial-small", gen.Config{Family: gen.Adversarial, N: 40, M: 4}, 1},
}

// Config tunes one load run.
type Config struct {
	// BaseURL is the endpoint under test (a sectord or a sectorproxy).
	BaseURL string
	// RPS is the arrival rate. Required.
	RPS float64
	// Duration spans the due times; requests still in flight at its end
	// are awaited. Required.
	Duration time.Duration
	// VerifyBase, when set, is a second endpoint (typically a backend
	// directly, with the proxy as BaseURL). Every verifyEvery-th OK /solve
	// answer is compared with the same request's answer from it, timing
	// stripped — the differential check that routing is semantics-free.
	VerifyBase string
}

// request is one pre-built body from the pool.
type request struct {
	path string // "/solve" or "/solve/batch"
	body []byte
}

// Percentiles summarises a latency distribution in milliseconds.
type Percentiles struct {
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
	P999MS float64 `json:"p999_ms"`
	MeanMS float64 `json:"mean_ms"`
	MaxMS  float64 `json:"max_ms"`
}

// ShardStats is the per-shard cache breakdown, attributed by the
// X-Sectord-Shard response header.
type ShardStats struct {
	Requests  int     `json:"requests"`
	Hits      int     `json:"cache_hits"`
	Misses    int     `json:"cache_misses"`
	Collapsed int     `json:"cache_collapsed"`
	Bypass    int     `json:"cache_bypass"`
	HitRatio  float64 `json:"hit_ratio"`
}

// VerifyStats reports the sampled proxy-vs-direct differential.
type VerifyStats struct {
	Checked    int `json:"checked"`
	Mismatches int `json:"mismatches"`
}

// Report is the machine-readable result of a run. The metadata header
// follows cmd/sectorbench's report so fleet SLO runs archive and diff the
// same way bench runs do.
type Report struct {
	Date       string `json:"date"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`

	BaseURL    string  `json:"base_url"`
	TargetRPS  float64 `json:"target_rps"`
	DurationMS float64 `json:"duration_ms"`

	Requests    int     `json:"requests"`
	AchievedRPS float64 `json:"achieved_rps"`
	Latency     Percentiles
	LatencyOK   Percentiles `json:"latency_ok"` // 200s only: what a served request cost

	OK        int     `json:"ok"`
	Degraded  int     `json:"degraded"`
	Shed      int     `json:"shed"`       // 429s: deliberate, not an error
	Errors4xx int     `json:"errors_4xx"` // non-shed 4xx
	Errors5xx int     `json:"errors_5xx"` // the SLO-relevant failures
	Transport int     `json:"transport"`  // connection-level failures
	ShedRate  float64 `json:"shed_rate"`
	ErrorRate float64 `json:"error_rate"` // (5xx + transport) / requests

	Shards map[string]*ShardStats `json:"shards"`
	Verify *VerifyStats           `json:"verify,omitempty"`
}

// SLO is the gate applied to a report. Violations fail the run the way
// sectorbench -compare fails a regressed benchmark.
type SLO struct {
	// MaxP99MS bounds the p99 latency of 200s; zero means no bound.
	MaxP99MS float64 `json:"max_p99_ms,omitempty"`
}

// Check returns the violated clauses, empty when the report passes. Any
// non-shed 5xx or transport failure is a violation, and so is any
// verification mismatch: it means the proxy changed an answer, which no
// threshold makes acceptable.
func (r *Report) Check(slo SLO) []string {
	var bad []string
	if slo.MaxP99MS > 0 && r.LatencyOK.P99MS > slo.MaxP99MS {
		bad = append(bad, fmt.Sprintf("p99 %.1fms exceeds SLO %.1fms", r.LatencyOK.P99MS, slo.MaxP99MS))
	}
	if r.Errors5xx+r.Transport > 0 {
		bad = append(bad, fmt.Sprintf("%d non-shed 5xx and %d transport failures", r.Errors5xx, r.Transport))
	}
	if r.Verify != nil && r.Verify.Mismatches > 0 {
		bad = append(bad, fmt.Sprintf("%d/%d verified answers differ between %s and the direct backend", r.Verify.Mismatches, r.Verify.Checked, r.BaseURL))
	}
	return bad
}

// collector accumulates per-request outcomes under one lock; the request
// rates here are far below contention territory.
type collector struct {
	mu        sync.Mutex
	latencies []float64 // ms, all requests
	okLat     []float64 // ms, 200s only
	ok        int
	degraded  int
	shed      int
	e4xx      int
	e5xx      int
	transport int
	shards    map[string]*ShardStats
	verified  int
	mismatch  int
}

// outcome is one request's observation.
type outcome struct {
	latMS     float64
	status    int // 0 = transport failure
	body      []byte
	degraded  bool
	shard     string
	cacheDisp string
}

func (c *collector) record(o outcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.latencies = append(c.latencies, o.latMS)
	switch {
	case o.status == 0:
		c.transport++
	case o.status == http.StatusOK:
		c.ok++
		c.okLat = append(c.okLat, o.latMS)
		if o.degraded {
			c.degraded++
		}
	case o.status == http.StatusTooManyRequests:
		c.shed++
	case o.status >= 500:
		c.e5xx++
	default:
		c.e4xx++
	}
	if o.status != 0 {
		shard := o.shard
		if shard == "" {
			shard = "unknown"
		}
		s := c.shards[shard]
		if s == nil {
			s = &ShardStats{}
			c.shards[shard] = s
		}
		s.Requests++
		switch o.cacheDisp {
		case "hit":
			s.Hits++
		case "miss":
			s.Misses++
		case "collapsed":
			s.Collapsed++
		case "bypass":
			s.Bypass++
		}
	}
}

// Run sends cfg.RPS requests per second for cfg.Duration to cfg.BaseURL,
// waits for the last of them, and returns the report. Cancelling ctx stops
// the run early and reports what was measured so far.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("loadgen: BaseURL is required")
	}
	if cfg.RPS <= 0 || cfg.Duration <= 0 {
		return nil, fmt.Errorf("loadgen: RPS and Duration must be positive")
	}
	pool, err := buildPool()
	if err != nil {
		return nil, err
	}
	col := &collector{shards: map[string]*ShardStats{}}
	// The transport holds at most conns connections per host. A request
	// due while all of them are busy waits inside Do, and its latency,
	// timed from its due time, includes that wait. The per-request timeout
	// bounds the goroutines waiting at once to about RPS × timeout.
	hc := &http.Client{
		Timeout:   timeout,
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
	}
	defer hc.CloseIdleConnections()

	t0 := time.Now()
	var wg sync.WaitGroup
	for k := 0; ctx.Err() == nil; k++ {
		due := time.Duration(float64(k) * float64(time.Second) / cfg.RPS)
		if due >= cfg.Duration {
			break
		}
		time.Sleep(time.Until(t0.Add(due)))
		req := &pool[k%len(pool)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := shoot(ctx, hc, cfg.BaseURL+req.path, req.body, t0.Add(due))
			if o.status == 0 && ctx.Err() != nil {
				// The caller cancelled the run mid-request; that is not
				// the server failing.
				return
			}
			col.record(o)
			if cfg.VerifyBase != "" && req.path == "/solve" && o.status == http.StatusOK {
				col.verify(ctx, hc, cfg.VerifyBase+req.path, req.body, o.body)
			}
		}()
	}
	wg.Wait()
	return assemble(cfg, col, time.Since(t0)), nil
}

// shoot sends one request and times it from due. There are no retries:
// the load generator measures raw server behaviour; retry policy belongs
// to real clients.
func shoot(ctx context.Context, hc *http.Client, url string, body []byte, due time.Time) outcome {
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return outcome{latMS: msSince(due)}
	}
	httpReq.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(httpReq)
	if err != nil {
		return outcome{latMS: msSince(due)}
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return outcome{latMS: msSince(due)}
	}
	o := outcome{
		latMS:     msSince(due),
		status:    resp.StatusCode,
		body:      raw,
		shard:     resp.Header.Get("X-Sectord-Shard"),
		cacheDisp: resp.Header.Get("X-Sectord-Cache"),
	}
	if o.status == http.StatusOK {
		var probe struct {
			Degraded bool `json:"degraded"`
		}
		o.degraded = json.Unmarshal(raw, &probe) == nil && probe.Degraded
	}
	return o
}

// verify compares got, the answer the client received, with the answer
// url gives to the same body, timing stripped. It samples one per
// verifyEvery OK answers recorded.
func (c *collector) verify(ctx context.Context, hc *http.Client, url string, body, got []byte) {
	c.mu.Lock()
	due := c.verified*verifyEvery <= c.ok
	c.mu.Unlock()
	if !due {
		return
	}
	direct := shoot(ctx, hc, url, body, time.Now())
	a, aOK := answer(got)
	b, bOK := answer(direct.body)
	if direct.status != http.StatusOK || !aOK || !bOK {
		return // a transient failure is not a mismatch
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.verified++
	if !reflect.DeepEqual(a, b) {
		c.mismatch++
	}
}

// answer decodes a /solve reply without its elapsed_ms.
func answer(body []byte) (map[string]any, bool) {
	var m map[string]any
	if json.Unmarshal(body, &m) != nil {
		return nil, false
	}
	delete(m, "elapsed_ms")
	return m, true
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t)) / float64(time.Millisecond)
}

// buildPool pre-generates the request bodies so generation cost never
// pollutes measured latency, and so every run replays the same workload
// byte-for-byte.
func buildPool() ([]request, error) {
	rng := rand.New(rand.NewSource(seed))
	total := 0
	for _, t := range mix {
		total += t.weight
	}
	pickTier := func() tier {
		n := rng.Intn(total)
		for _, t := range mix {
			if n < t.weight {
				return t
			}
			n -= t.weight
		}
		return mix[len(mix)-1]
	}
	type envelope struct {
		FormatVersion int               `json:"format_version"`
		Instance      *model.Instance   `json:"instance,omitempty"`
		Instances     []*model.Instance `json:"instances,omitempty"`
	}
	var instances []*model.Instance // for batch composition
	var pool []request
	for i := 0; i < poolSize; i++ {
		t := pickTier()
		gcfg := t.cfg
		gcfg.Seed = seed + int64(i)*7919
		in, err := gen.Generate(gcfg)
		if err != nil {
			return nil, fmt.Errorf("loadgen: tier %q: %w", t.name, err)
		}
		instances = append(instances, in)
		req := request{path: "/solve"}
		env := envelope{FormatVersion: 1, Instance: in}
		if (i+1)%batchEvery == 0 {
			req.path = "/solve/batch"
			env = envelope{FormatVersion: 1, Instances: instances[len(instances)-batchSize:]}
		}
		if req.body, err = json.Marshal(env); err != nil {
			return nil, err
		}
		pool = append(pool, req)
	}
	// Shuffle so tiers interleave rather than clump by pool order.
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool, nil
}

// percentiles summarises a latency sample with interpolated quantiles.
func percentiles(ms []float64) Percentiles {
	if len(ms) == 0 {
		return Percentiles{}
	}
	sort.Float64s(ms)
	s := stats.Summarize(ms)
	return Percentiles{
		P50MS:  s.Median,
		P90MS:  stats.Quantile(ms, 0.90),
		P99MS:  stats.Quantile(ms, 0.99),
		P999MS: stats.Quantile(ms, 0.999),
		MeanMS: s.Mean,
		MaxMS:  s.Max,
	}
}

func assemble(cfg Config, col *collector, elapsed time.Duration) *Report {
	col.mu.Lock()
	defer col.mu.Unlock()
	n := len(col.latencies)
	r := &Report{
		Date:        time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		BaseURL:     cfg.BaseURL,
		TargetRPS:   cfg.RPS,
		DurationMS:  float64(elapsed) / float64(time.Millisecond),
		Requests:    n,
		AchievedRPS: float64(n) / elapsed.Seconds(),
		Latency:     percentiles(col.latencies),
		LatencyOK:   percentiles(col.okLat),
		OK:          col.ok,
		Degraded:    col.degraded,
		Shed:        col.shed,
		Errors4xx:   col.e4xx,
		Errors5xx:   col.e5xx,
		Transport:   col.transport,
		Shards:      col.shards,
	}
	if n > 0 {
		r.ShedRate = float64(col.shed) / float64(n)
		r.ErrorRate = float64(col.e5xx+col.transport) / float64(n)
	}
	for _, s := range r.Shards {
		if looked := s.Hits + s.Misses; looked > 0 {
			s.HitRatio = float64(s.Hits) / float64(looked)
		}
	}
	if cfg.VerifyBase != "" {
		r.Verify = &VerifyStats{Checked: col.verified, Mismatches: col.mismatch}
	}
	return r
}
