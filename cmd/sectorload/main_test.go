// Tests for the sectorload command front: flag validation, report
// emission, and the SLO gate's exit contract.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sectorpack/internal/daemon"
	"sectorpack/internal/loadgen"
)

func TestRunFlagValidation(t *testing.T) {
	ctx := context.Background()
	var out, logw bytes.Buffer
	for _, args := range [][]string{
		{},                   // -url is required
		{"-url", "http://x"}, // -rps is required
		{"-badflag"},
	} {
		if err := run(ctx, args, &out, &logw); err == nil {
			t.Errorf("run(%v) succeeded, want an error", args)
		}
	}
}

func TestRunEmitsReportAndPassesSLO(t *testing.T) {
	s := daemon.NewServer(daemon.Config{Seed: 1, MaxInflight: 16, ShardName: "s0"})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	reportPath := filepath.Join(t.TempDir(), "report.json")
	var out, logw bytes.Buffer
	err := run(context.Background(), []string{
		"-url", ts.URL,
		"-rps", "50",
		"-duration", "300ms",
		"-verify", ts.URL,
		"-report", reportPath,
	}, &out, &logw)
	if err != nil {
		t.Fatalf("run against a healthy daemon failed: %v", err)
	}
	var fromStdout, fromFile loadgen.Report
	if err := json.Unmarshal(out.Bytes(), &fromStdout); err != nil {
		t.Fatalf("stdout is not a report: %v\n%s", err, out.String())
	}
	blob, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatalf("-report file missing: %v", err)
	}
	if err := json.Unmarshal(blob, &fromFile); err != nil {
		t.Fatalf("-report file is not a report: %v", err)
	}
	if fromStdout.Requests == 0 || fromStdout.Requests != fromFile.Requests {
		t.Errorf("stdout reports %d requests, file %d; want equal and non-zero", fromStdout.Requests, fromFile.Requests)
	}
	if fromFile.Verify == nil || fromFile.Verify.Checked == 0 {
		t.Errorf("-verify was set but no verification ran: %+v", fromFile.Verify)
	}
	if !strings.Contains(logw.String(), "SLO ok") {
		t.Errorf("passing run did not announce the SLO verdict: %q", logw.String())
	}
}

func TestRunFailsSLOOnServerErrors(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
	}))
	defer ts.Close()
	var out, logw bytes.Buffer
	err := run(context.Background(), []string{
		"-url", ts.URL,
		"-rps", "20",
		"-duration", "200ms",
	}, &out, &logw)
	if err == nil {
		t.Fatal("a 5xx-only server passed the default SLO; non-shed failures must gate")
	}
	if !strings.Contains(err.Error(), "SLO violated") {
		t.Errorf("failure is not an SLO verdict: %v", err)
	}
}
