package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// request is one HTTP call a load phase makes.
type request struct {
	method string
	url    string
	body   []byte
	input  int // index of the generated input it carries
}

// sample is one timed operation. Times are offsets from the phase start.
//
// In the open loop, due is the scheduled send time, so latency counts the
// wait a stall imposes on every later request. In the closed loop, due is
// the send itself. late is how far dispatch trailed the moment the request
// could go: its due time (open) or the moment its client became free
// (closed). Waiting for a free connection happens after dispatch and is not
// lateness.
type sample struct {
	input  int
	client int
	due    time.Duration
	sent   time.Duration
	done   time.Duration
	late   time.Duration
	status int    // 0: transport error
	cache  string // X-Sectord-Cache
	shard  string // X-Sectord-Shard
	body   []byte
	err    error
}

func (s *sample) latency() time.Duration { return s.done - s.due }

func (s *sample) ok() bool { return s.err == nil && s.status >= 200 && s.status < 300 }

// newHTTPClient returns a client that opens at most conns connections to
// any one host.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     90 * time.Second,
			DisableCompression:  true,
		},
	}
}

// send performs r and fills the outcome fields of s.
func send(ctx context.Context, hc *http.Client, r request, s *sample, t0 time.Time) {
	defer func() { s.done = time.Since(t0) }()
	req, err := http.NewRequestWithContext(ctx, r.method, r.url, bytes.NewReader(r.body))
	if err != nil {
		s.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		s.err = err
		return
	}
	s.body, s.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	s.status = resp.StatusCode
	s.cache = resp.Header.Get("X-Sectord-Cache")
	s.shard = resp.Header.Get("X-Sectord-Shard")
	if s.err == nil && !s.ok() {
		s.err = fmt.Errorf("%s %s: status %d: %.200s", r.method, r.url, s.status, s.body)
	}
}

// call performs one request outside any load phase (set-up, probes).
func call(ctx context.Context, hc *http.Client, method, url string, body []byte) (*sample, error) {
	s := &sample{}
	send(ctx, hc, request{method: method, url: url, body: body}, s, time.Now())
	return s, s.err
}

// openLoop sends count requests on a fixed schedule, rate per second, and
// waits for all of them. A request is dispatched at its due time however
// many are still in flight; if the generator falls behind it catches up
// without skipping any, and the lateness is recorded. onDone, when set,
// runs in the request's goroutine after it completes.
func openLoop(ctx context.Context, hc *http.Client, rate float64, count int, next func(k int) request, onDone func(*sample)) []sample {
	samples := make([]sample, count)
	t0 := time.Now()
	var wg sync.WaitGroup
	for k := 0; k < count && ctx.Err() == nil; k++ {
		due := time.Duration(float64(k) / rate * float64(time.Second))
		if wait := due - time.Since(t0); wait > 0 {
			time.Sleep(wait)
		}
		s := &samples[k]
		r := next(k)
		s.input, s.due, s.sent = r.input, due, time.Since(t0)
		s.late = s.sent - s.due
		wg.Add(1)
		go func() {
			defer wg.Done()
			send(ctx, hc, r, s, t0)
			if onDone != nil {
				onDone(s)
			}
		}()
	}
	wg.Wait()
	return samples
}

// closedLoop runs clients concurrent clients for dur; each sends its next
// request only after the previous reply. next returns false when a client
// has no more inputs, which ends that client early.
func closedLoop(ctx context.Context, hc *http.Client, clients int, dur time.Duration, next func(client, k int) (request, bool), onDone func(*sample)) ([]sample, error) {
	per := make([][]sample, clients)
	var exhausted atomic.Bool
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ready := time.Duration(0)
			for k := 0; time.Since(t0) < dur && ctx.Err() == nil; k++ {
				r, ok := next(c, k)
				if !ok {
					exhausted.Store(true)
					return
				}
				s := sample{input: r.input, client: c}
				s.sent = time.Since(t0)
				s.due, s.late = s.sent, s.sent-ready
				send(ctx, hc, r, &s, t0)
				ready = s.done
				if onDone != nil {
					onDone(&s)
				}
				per[c] = append(per[c], s)
			}
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	if exhausted.Load() {
		return all, fmt.Errorf("closed loop ran out of generated inputs before %v", dur)
	}
	return all, nil
}

// lastDone is when the last operation of a phase completed: the phase's
// length, counting the overrun of requests sent before its deadline.
func lastDone(samples []sample) time.Duration {
	var t time.Duration
	for i := range samples {
		t = max(t, samples[i].done)
	}
	return t
}

// phaseStats summarizes a load phase.
type phaseStats struct {
	n, okN, failed int
	p50, tail      float64 // ms
	lateP99        float64 // ms
}

func summarize(samples []sample, tailP float64) phaseStats {
	st := phaseStats{n: len(samples)}
	lat := make([]float64, 0, len(samples))
	late := make([]float64, 0, len(samples))
	for i := range samples {
		s := &samples[i]
		lat = append(lat, ms(s.latency()))
		late = append(late, ms(s.late))
		if s.ok() {
			st.okN++
		} else {
			st.failed++
		}
	}
	st.p50, st.tail, st.lateP99 = median(lat), quantile(lat, tailP), quantile(late, 99)
	return st
}
