// Command sectorload drives a sectord or sectorproxy endpoint with a
// seeded, mixed-tier workload on a fixed arrival schedule and reports
// latency percentiles, shed/degraded/error rates, and per-shard cache hit
// ratios as JSON. It doubles as a gate: the exit status says whether the
// fleet met its objectives (no non-shed 5xx or transport failure, no
// verification mismatch, p99 within -max-p99), the same contract
// sectorbench -compare provides for benchmark regressions.
//
// Typical fleet smoke, two backends behind a proxy:
//
//	sectorload -url http://localhost:8378 -rps 80 -duration 15s \
//	    -verify http://localhost:8377 -max-p99 2000
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sectorpack/internal/loadgen"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "sectorload:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out, logw io.Writer) error {
	fs := flag.NewFlagSet("sectorload", flag.ContinueOnError)
	fs.SetOutput(logw)
	url := fs.String("url", "", "endpoint under test (required), e.g. http://localhost:8378")
	rps := fs.Float64("rps", 0, "arrival rate in requests per second (required)")
	duration := fs.Duration("duration", 10*time.Second, "span of due times; requests still in flight at its end are awaited")
	verify := fs.String("verify", "", "direct-backend URL to compare sampled solve answers with; any mismatch fails the run")
	maxP99 := fs.Float64("max-p99", 0, "SLO: fail if the p99 of 200s, timed from each due time, exceeds this (ms, 0 = no gate)")
	reportPath := fs.String("report", "", "also write the JSON report to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *url == "" {
		return fmt.Errorf("-url is required")
	}
	report, err := loadgen.Run(ctx, loadgen.Config{
		BaseURL:    strings.TrimRight(*url, "/"),
		RPS:        *rps,
		Duration:   *duration,
		VerifyBase: strings.TrimRight(*verify, "/"),
	})
	if err != nil {
		return err
	}
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if _, err := out.Write(blob); err != nil {
		return err
	}
	if *reportPath != "" {
		if err := os.WriteFile(*reportPath, blob, 0o644); err != nil {
			return err
		}
	}
	violations := report.Check(loadgen.SLO{MaxP99MS: *maxP99})
	if len(violations) > 0 {
		return fmt.Errorf("SLO violated:\n  %s", strings.Join(violations, "\n  "))
	}
	fmt.Fprintf(logw, "sectorload: %d requests, p99 %.1fms, shed %.2f%%, SLO ok\n",
		report.Requests, report.LatencyOK.P99MS, report.ShedRate*100)
	return nil
}
