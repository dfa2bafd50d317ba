package loadgen

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sectorpack/internal/daemon"
)

func testDaemon(t *testing.T) *httptest.Server {
	t.Helper()
	s := daemon.NewServer(daemon.Config{Seed: 1, MaxInflight: 16, ShardName: "s0"})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func TestReportShape(t *testing.T) {
	ts := testDaemon(t)
	// 80 requests over the 32-body pool, so repeats must reach the cache.
	report, err := Run(context.Background(), Config{
		BaseURL:  ts.URL,
		RPS:      200,
		Duration: 400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Requests != 80 || report.OK == 0 {
		t.Fatalf("want 80 measured requests: %+v", report)
	}
	if report.Errors5xx != 0 || report.Transport != 0 || report.Errors4xx != 0 {
		t.Errorf("healthy daemon produced failures: %+v", report)
	}
	s := report.Shards["s0"]
	if s == nil || s.Requests == 0 {
		t.Fatalf("per-shard attribution missing: %+v", report.Shards)
	}
	if s.Hits == 0 {
		t.Errorf("pool repeats produced no cache hits: %+v", s)
	}
	if s.HitRatio <= 0 {
		t.Errorf("hit ratio %v, want > 0", s.HitRatio)
	}
	lat := report.Latency
	if lat.P50MS > lat.P99MS || lat.P99MS > lat.MaxMS {
		t.Errorf("percentiles out of order: %+v", lat)
	}
	if len(report.Check(SLO{})) != 0 {
		t.Errorf("healthy run violated the default SLO: %v", report.Check(SLO{}))
	}
}

func TestOpenLoopTargetsRate(t *testing.T) {
	ts := testDaemon(t)
	report, err := Run(context.Background(), Config{
		BaseURL:  ts.URL,
		RPS:      100,
		Duration: 400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	//sectorlint:ignore floateq config round-trip: the report must echo the exact literal 100
	if report.TargetRPS != 100 {
		t.Errorf("TargetRPS %v not recorded", report.TargetRPS)
	}
	// Due times 0, 10, …, 390ms: every one is sent, however the server keeps up.
	if report.Requests != 40 {
		t.Errorf("open loop sent %d requests at 100 rps over 400ms, want 40", report.Requests)
	}
}

// TestStallIsLatencyNotFailure stalls the server for the first 300ms of
// traffic. Every request due in the stall must still be sent, wait for a
// connection or an answer, and be charged that wait as latency from its
// due time; none may become a transport failure.
func TestStallIsLatencyNotFailure(t *testing.T) {
	var once sync.Once
	var stallEnd time.Time
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() { stallEnd = time.Now().Add(300 * time.Millisecond) })
		time.Sleep(time.Until(stallEnd))
		io.WriteString(w, `{}`)
	}))
	t.Cleanup(ts.Close)
	report, err := Run(context.Background(), Config{
		BaseURL:  ts.URL,
		RPS:      100,
		Duration: 600 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Transport != 0 || report.OK != report.Requests {
		t.Errorf("a 300ms stall turned %d of %d requests into transport failures (%d OK)", report.Transport, report.Requests, report.OK)
	}
	// The first request waited out the whole stall, the next ones nearly so.
	if report.LatencyOK.P99MS < 250 {
		t.Errorf("p99 %.1fms does not show the 300ms stall: %+v", report.LatencyOK.P99MS, report.LatencyOK)
	}
}

func TestVerifyAgainstSelfFindsNoMismatch(t *testing.T) {
	ts := testDaemon(t)
	report, err := Run(context.Background(), Config{
		BaseURL:    ts.URL,
		RPS:        50,
		Duration:   300 * time.Millisecond,
		VerifyBase: ts.URL,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Verify == nil || report.Verify.Checked == 0 {
		t.Fatalf("verification never ran: %+v", report.Verify)
	}
	if report.Verify.Mismatches != 0 {
		t.Errorf("deterministic daemon disagreed with itself %d times", report.Verify.Mismatches)
	}
}

func TestSLOCheckClauses(t *testing.T) {
	r := &Report{
		BaseURL:   "http://x",
		Requests:  100,
		LatencyOK: Percentiles{P99MS: 500},
		Errors5xx: 2,
		Shed:      30,
		ShedRate:  0.3,
		Verify:    &VerifyStats{Checked: 10, Mismatches: 1},
	}
	bad := r.Check(SLO{MaxP99MS: 100})
	wantSubstrings := []string{"p99", "non-shed 5xx", "answers differ"}
	if len(bad) != len(wantSubstrings) {
		t.Fatalf("got %d violations %v, want %d", len(bad), bad, len(wantSubstrings))
	}
	for i, sub := range wantSubstrings {
		if !strings.Contains(bad[i], sub) {
			t.Errorf("violation %d = %q, want it to mention %q", i, bad[i], sub)
		}
	}
	// Any non-shed failure is a violation.
	if got := (&Report{Requests: 10, Errors5xx: 1}).Check(SLO{}); len(got) != 1 {
		t.Errorf("one 5xx: %v, want exactly one violation", got)
	}
	if got := (&Report{Requests: 10, Shed: 3, ShedRate: 0.3}).Check(SLO{}); len(got) != 0 {
		t.Errorf("shedding alone must not violate an empty SLO: %v", got)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(context.Background(), Config{RPS: 1, Duration: time.Second}); err == nil {
		t.Error("missing BaseURL accepted")
	}
	if _, err := Run(context.Background(), Config{BaseURL: "http://x", Duration: time.Second}); err == nil {
		t.Error("run without RPS accepted")
	}
	if _, err := Run(context.Background(), Config{BaseURL: "http://x", RPS: 1}); err == nil {
		t.Error("run without Duration accepted")
	}
}
