package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// smokeParams shrink every workload so a run takes a couple of seconds.
var smokeParams = params{
	hotPool: 4, hotN: [2]int{20, 40}, hotRate: 100,
	coldPool: 8, coldN: []int{20, 40}, coldRate: 20,
	sessionN: 300, deltaCeiling: 2000,
	offlineN:     2000,
	replaySolves: 10, replayDeltas: 5, replayRuns: 2, hopPairs: 10,
}

// TestSmoke runs every workload for 2s on small inputs, untraced and
// traced, and checks that every metric is reported with its unit, nothing
// failed, and the oracle found no mismatch.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the programs and runs every workload")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spans := filepath.Join(t.TempDir(), "spans.json")
	for _, traced := range []bool{false, true} {
		cfg := runConfig{seed: 7, seconds: 2 * time.Second, p: smokeParams, traced: traced, spans: spans}
		rep, err := runWorkloads(context.Background(), root, cfg, workloads, io.Discard)
		if err != nil {
			t.Fatalf("traced=%v: %v", traced, err)
		}
		want := endToEnd
		if traced {
			want = perLayer
		}
		for _, r := range rep.results {
			if r.failed != 0 || r.mismatches != 0 || len(r.invalid) != 0 || r.attempted == 0 {
				t.Errorf("%s traced=%v: attempted %d failed %d mismatches %d invalid %v: %v",
					r.workload, traced, r.attempted, r.failed, r.mismatches, r.invalid, r.messages)
			}
			if len(r.metrics) != len(want) {
				t.Fatalf("%s traced=%v: %d metrics, want %d", r.workload, traced, len(r.metrics), len(want))
			}
			for i, m := range r.metrics {
				if m.Name != want[i].name || m.Unit != want[i].unit {
					t.Errorf("%s: metric %d is %s [%s], want %s [%s]", r.workload, i, m.Name, m.Unit, want[i].name, want[i].unit)
				}
			}
			if traced {
				checkSpansFile(t, filepath.Join(filepath.Dir(spans), "spans-"+r.workload+".json"))
			}
		}
	}
}

func TestSupportedTail(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90},
		{199, 90}, {200, 95}, {999, 95}, {1000, 99}, {100000, 99},
	} {
		if got := supportedTail(tc.n); got != tc.want {
			t.Errorf("supportedTail(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

// TestOpenLoopCountsQueueing: with one connection and a handler slower
// than the arrival interval, requests queue in the client. Latency is timed
// from the due time, so it grows with the queue; lateness, which stops at
// dispatch, does not.
func TestOpenLoopCountsQueueing(t *testing.T) {
	const service = 40 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(service)
	}))
	defer srv.Close()
	hc := newHTTPClient(1)
	defer hc.CloseIdleConnections()
	const n = 8
	samples := openLoop(context.Background(), hc, 100, n, func(k int) request {
		return request{method: "GET", url: srv.URL, input: k}
	}, nil)
	for k, s := range samples {
		if !s.ok() {
			t.Fatalf("request %d: %v", k, s.err)
		}
		// Request k waits for the k before it: done ≈ (k+1)·40ms, due = k·10ms.
		if floor := time.Duration(k)*(service-10*time.Millisecond) + service; s.latency() < floor {
			t.Errorf("request %d: latency %v < %v, queueing not counted", k, s.latency(), floor)
		}
	}
	if p99 := summarize(samples, 99).lateP99; p99 > 15 {
		t.Errorf("lateness p99 %.2f ms: the connection wait was counted as lateness", p99)
	}
}

func TestTraceSpans(t *testing.T) {
	rec := newRecorder()
	for k := 0; k < 3; k++ {
		root := rec.root("solve", "r")
		rec.do(root, "a", func() { time.Sleep(time.Millisecond) })
		outer := rec.begin(root, "b")
		rec.do(outer, "c", func() { time.Sleep(time.Millisecond) })
		rec.end(outer)
		rec.end(root)
	}
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := writeSpans(path, rec.snapshot(), nil); err != nil {
		t.Fatal(err)
	}
	checkSpansFile(t, path)
	if c := coverage(rec.snapshot()); c < 0.5 || c > 1 {
		t.Errorf("coverage %v outside (0.5, 1]", c)
	}
	if got := len(layerTimes(rec.snapshot())["c"]); got != 3 {
		t.Errorf("layer c timed in %d roots, want 3", got)
	}
}

// checkSpansFile parses a spans file and checks every child lies inside
// its parent and no span has negative self time.
func checkSpansFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(f.Spans) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	for i, s := range f.Spans {
		if s.ID != i+1 || s.End < s.Start {
			t.Fatalf("%s: bad span %+v", path, s)
		}
		if s.Parent != 0 {
			p := f.Spans[s.Parent-1]
			if s.Start < p.Start || s.End > p.End || s.RequestID != p.RequestID {
				t.Errorf("%s: span %d %s [%d,%d] outside parent %s [%d,%d]", path, s.ID, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
			}
		}
	}
	for i, self := range selfTimes(f.Spans) {
		if self < 0 {
			t.Errorf("%s: span %d %s has self time %d", path, i+1, f.Spans[i].Name, self)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics the program
// prints in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		name string
		json []struct{ Name, Unit, Better string }
		defs []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", c.name, len(c.json), len(c.defs))
		}
		for i, m := range c.json {
			if d := c.defs[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json %v, program %v", c.name, i, m, d)
			}
		}
	}
}
