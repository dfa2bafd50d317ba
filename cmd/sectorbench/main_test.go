package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, id := range []string{"E1", "E10"} {
		if !strings.Contains(out.String(), id) {
			t.Errorf("list missing %s", id)
		}
	}
	if !strings.Contains(out.String(), "claim:") {
		t.Error("list should show claims")
	}
}

func TestRunSubsetQuick(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-quick", "-exp", "E1, E7"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "Table E1") || !strings.Contains(out.String(), "Table E7") {
		t.Errorf("missing tables:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "completed in") {
		t.Error("missing timing lines")
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "E99"}, &out); err == nil {
		t.Error("unknown experiment must error")
	}
	if err := run([]string{"-badflag"}, &out); err == nil {
		t.Error("unknown flag must error")
	}
}

func TestJSONExport(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real micro-benchmarks")
	}
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run([]string{"-quick", "-exp", "E1", "-json", dir}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("expected one BENCH_<date>.json, got %v (%v)", matches, err)
	}
	data, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	var rep benchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("summary is not valid JSON: %v", err)
	}
	if len(rep.Experiments) != 1 || rep.Experiments[0].ID != "E1" || rep.Experiments[0].WallMS <= 0 {
		t.Errorf("experiment timings = %+v", rep.Experiments)
	}
	if len(rep.Micro) != 9 {
		t.Fatalf("micro benches = %+v, want 9 (greedy n50/n200/n800 + cachehit/n200 + engine n100k scalar/parallel + baseline/n100k + session scratch/delta n100k)", rep.Micro)
	}
	if rep.NumCPU <= 0 {
		t.Errorf("report num_cpu = %d, want > 0", rep.NumCPU)
	}
	byName := map[string]microBench{}
	for _, m := range rep.Micro {
		if m.NsPerOp <= 0 || m.AllocsPerOp <= 0 {
			t.Errorf("degenerate micro bench %+v", m)
		}
		if m.Workers <= 0 || m.GOMAXPROCS <= 0 {
			t.Errorf("micro bench %s missing parallelism metadata: %+v", m.Name, m)
		}
		byName[m.Name] = m
	}
	// The pinned tier entries must record the path they pinned.
	if e := byName["engine/n100k/scalar"]; e.Path != "scalar" || e.Workers != 1 {
		t.Errorf("engine/n100k/scalar recorded path=%q workers=%d", e.Path, e.Workers)
	}
	if e := byName["engine/n100k/parallel"]; e.Path != "parallel" || e.Workers <= 1 {
		t.Errorf("engine/n100k/parallel recorded path=%q workers=%d", e.Path, e.Workers)
	}
	// The cached lookup must beat the fresh solve it short-circuits.
	hit, fresh := byName["cachehit/n200"], byName["greedy/n200"]
	if hit.Name == "" || fresh.Name == "" {
		t.Fatalf("missing cachehit/n200 or greedy/n200 in %+v", rep.Micro)
	}
	if hit.NsPerOp >= fresh.NsPerOp {
		t.Errorf("cache hit %.0f ns/op not faster than fresh greedy %.0f ns/op", hit.NsPerOp, fresh.NsPerOp)
	}
	// The delta-session claim: absorbing a 1% churn step through a warm
	// session must beat the stateless re-solve by at least 5x. One timed
	// pair read 5.4x to 6.1x on a shared 2-CPU Linux host, too close to the
	// gate for a single sample, and a median of three still fell under it
	// (4.4x, 4.8x, 6.7x) while other packages' tests ran alongside. So the
	// gate takes the median ratio of five scratch/delta pairs, each timed
	// back to back: the report's and four more.
	ratio := func(micro []microBench) float64 {
		var scratch, delta float64
		for _, m := range micro {
			switch m.Name {
			case "session/scratch-n100k":
				scratch = m.NsPerOp
			case "session/delta-n100k":
				delta = m.NsPerOp
			}
		}
		if scratch <= 0 || delta <= 0 {
			t.Fatalf("missing session/scratch-n100k or session/delta-n100k in %+v", micro)
		}
		t.Logf("session delta %.0f ns/op, from-scratch %.0f ns/op: %.1fx", delta, scratch, scratch/delta)
		return scratch / delta
	}
	ratios := []float64{ratio(rep.Micro)}
	for len(ratios) < 5 {
		ratios = append(ratios, ratio(sessionBenchmarks()))
	}
	slices.Sort(ratios)
	if ratios[2] < 5 {
		t.Errorf("session delta not 5x faster than from-scratch: median %.1fx of %.1f", ratios[2], ratios)
	}
}

// TestCompareAgainstFreshBaseline: a report compared against itself passes,
// and re-running -exp none -compare against the just-written file exercises
// the full CLI path end to end.
func TestCompareAgainstFreshBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real micro-benchmarks")
	}
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run([]string{"-exp", "none", "-json", dir}, &out); err != nil {
		t.Fatalf("write baseline: %v", err)
	}
	if strings.Contains(out.String(), "Table") {
		t.Errorf("-exp none still ran experiments:\n%s", out.String())
	}
	matches, _ := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if len(matches) != 1 {
		t.Fatalf("expected one baseline, got %v", matches)
	}
	out.Reset()
	if err := run([]string{"-exp", "none", "-compare", matches[0], "-compare-metric", "allocs"}, &out); err != nil {
		t.Fatalf("compare against own baseline failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "benchmark compare passed") {
		t.Errorf("missing pass confirmation:\n%s", out.String())
	}
}

func TestCompareErrors(t *testing.T) {
	var out bytes.Buffer
	// Both checks happen before any benchmark runs, so these stay fast.
	if err := run([]string{"-exp", "none", "-compare", "/nonexistent.json"}, &out); err == nil {
		t.Error("missing baseline file must error")
	}
	if err := run([]string{"-exp", "none", "-compare", "x.json", "-compare-metric", "bogus"}, &out); err == nil {
		t.Error("invalid -compare-metric must error")
	}
}

// TestCompareMicroGate drives the gate logic directly with synthetic
// measurements: regressions past 25% on the gated metric fail, improvements
// and new benchmarks never do.
func TestCompareMicroGate(t *testing.T) {
	base := &benchReport{Micro: []microBench{
		{Name: "greedy/n200", NsPerOp: 1000, AllocsPerOp: 100},
		{Name: "cachehit/n200", NsPerOp: 100, AllocsPerOp: 10},
	}}
	cases := []struct {
		name    string
		current []microBench
		metric  string
		wantErr bool
	}{
		{"identical passes", base.Micro, "both", false},
		{"within tolerance passes", []microBench{
			{Name: "greedy/n200", NsPerOp: 1200, AllocsPerOp: 120},
			{Name: "cachehit/n200", NsPerOp: 100, AllocsPerOp: 10},
		}, "both", false},
		{"ns regression fails on both", []microBench{
			{Name: "greedy/n200", NsPerOp: 1300, AllocsPerOp: 100},
			{Name: "cachehit/n200", NsPerOp: 100, AllocsPerOp: 10},
		}, "both", true},
		{"ns regression ignored under allocs", []microBench{
			{Name: "greedy/n200", NsPerOp: 9000, AllocsPerOp: 100},
			{Name: "cachehit/n200", NsPerOp: 100, AllocsPerOp: 10},
		}, "allocs", false},
		{"alloc regression fails under allocs", []microBench{
			{Name: "greedy/n200", NsPerOp: 1000, AllocsPerOp: 200},
			{Name: "cachehit/n200", NsPerOp: 100, AllocsPerOp: 10},
		}, "allocs", true},
		{"missing baseline entry fails", []microBench{
			{Name: "greedy/n200", NsPerOp: 1000, AllocsPerOp: 100},
			{Name: "cachehit/n200", NsPerOp: 100, AllocsPerOp: 10},
			{Name: "brandnew/n1", NsPerOp: 1e9, AllocsPerOp: 1 << 30},
		}, "both", true},
		{"improvement passes", []microBench{
			{Name: "greedy/n200", NsPerOp: 10, AllocsPerOp: 1},
			{Name: "cachehit/n200", NsPerOp: 10, AllocsPerOp: 1},
		}, "both", false},
	}
	for _, tc := range cases {
		var out bytes.Buffer
		err := compareMicro(&out, base, tc.current, tc.metric, false)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: err = %v, wantErr %v\n%s", tc.name, err, tc.wantErr, out.String())
		}
	}

	// The missing-entry failure must name the benchmark and be overridable.
	withNew := []microBench{
		{Name: "greedy/n200", NsPerOp: 1000, AllocsPerOp: 100},
		{Name: "cachehit/n200", NsPerOp: 100, AllocsPerOp: 10},
		{Name: "brandnew/n1", NsPerOp: 1e9, AllocsPerOp: 1 << 30},
	}
	var out bytes.Buffer
	err := compareMicro(&out, base, withNew, "both", false)
	if err == nil || !strings.Contains(err.Error(), "brandnew/n1") {
		t.Errorf("missing-entry error should name the benchmark, got %v", err)
	}
	out.Reset()
	if err := compareMicro(&out, base, withNew, "both", true); err != nil {
		t.Errorf("allowMissing should tolerate the new benchmark, got %v", err)
	}
}

func TestCSVExport(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run([]string{"-quick", "-exp", "E1", "-csv", dir}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "E1_table1.csv"))
	if err != nil {
		t.Fatalf("csv not written: %v", err)
	}
	if !strings.Contains(string(data), "family,n,m") {
		t.Errorf("csv header missing:\n%s", data)
	}
}
