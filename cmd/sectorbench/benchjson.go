package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"sectorpack"
	"sectorpack/internal/angular"
	"sectorpack/internal/cache"
	"sectorpack/internal/gen"
	"sectorpack/internal/model"
	"sectorpack/internal/session"
)

// benchReport is the machine-readable summary written by -json: the wall
// time of every experiment run plus allocation-aware micro-benchmarks of
// the greedy hot path and the columnar-engine tiers. Checked-in
// BENCH_<date>.json files are the performance baselines regressions are
// judged against. NumCPU records the physical parallelism actually
// available when the report was taken — a "parallel" entry measured on a
// single-core box is oversubscription, not speedup, and comparisons across
// reports must account for it.
type benchReport struct {
	Date        string       `json:"date"`
	GoVersion   string       `json:"go_version"`
	GOMAXPROCS  int          `json:"gomaxprocs"`
	NumCPU      int          `json:"num_cpu"`
	Quick       bool         `json:"quick"`
	Experiments []expTiming  `json:"experiments"`
	Micro       []microBench `json:"micro"`
}

type expTiming struct {
	ID     string  `json:"id"`
	WallMS float64 `json:"wall_ms"`
}

// microBench is one measurement. GOMAXPROCS and Workers record the
// parallelism the entry ran with (Workers is the angular worker-pool cap in
// effect, which tier entries pin explicitly); Path says which code path
// that implies — "parallel" when the angular fan-outs were allowed more
// than one worker, "scalar" when pinned to one.
type microBench struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	Workers     int     `json:"workers"`
	Path        string  `json:"path"`
}

// record packages a benchmark result with the parallelism it ran under.
func record(name string, workers int, r testing.BenchmarkResult) microBench {
	path := "scalar"
	if workers > 1 {
		path = "parallel"
	}
	return microBench{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Workers:     workers,
		Path:        path,
	}
}

// tierWorkers is the worker cap the explicit "parallel" tier entries pin,
// matching the GOMAXPROCS>=8 configuration the speedup targets are stated
// at. On a smaller box the entry still runs (the pool oversubscribes);
// NumCPU in the report header says how to read it.
const tierWorkers = 8

// microBenchmarks measures the greedy solver at the bench_test.go sizes via
// testing.Benchmark (directly comparable to `go test -bench=BenchmarkGreedy
// -benchmem`), the solve-cache hit path at n=200, and the columnar-engine
// tiers: prewarm (sweep construction over the shared view) at n=100k pinned
// scalar and pinned parallel, plus a full baseline solve on the n=100k
// tier. With big, the n=1M tier is added — engine prewarm and the baseline
// solver, the two paths designed to scale that far. Candidate-enumerating
// heuristics are not run at the tiers: their Dantzig bound pass is
// O(eligible²) per antenna, which at n>=100k is hours, not seconds.
func microBenchmarks(big bool) []microBench {
	benchInstance := func(n int) *sectorpack.Instance {
		return sectorpack.MustGenerate(sectorpack.GenConfig{
			Family: sectorpack.Uniform, Variant: sectorpack.Sectors,
			Seed: 42, N: n, M: 3,
		})
	}
	opt := sectorpack.Options{Seed: 1, SkipBound: true}

	var out []microBench
	for _, n := range []int{50, 200, 800} {
		in := benchInstance(n)
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sectorpack.Solve(context.Background(), "greedy", in, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
		out = append(out, record(fmt.Sprintf("greedy/n%d", n), angular.Workers(), r))
	}

	in := benchInstance(200)
	c := cache.New(0)
	fp, err := cache.NewFingerprint(in, opt, "greedy")
	if err != nil {
		panic(err) // static inputs; cannot fail
	}
	sol, err := sectorpack.Solve(context.Background(), "greedy", in, opt)
	if err != nil {
		panic(err)
	}
	c.Put(fp, sol)
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fp, err := cache.NewFingerprint(in, opt, "greedy")
			if err != nil {
				b.Fatal(err)
			}
			if _, ok := c.Get(fp); !ok {
				b.Fatal("warm cache missed")
			}
		}
	})
	out = append(out, record("cachehit/n200", angular.Workers(), r))

	out = append(out, tierBenchmarks(big)...)
	return out
}

// tierInstance generates the named gen.Tier instance.
func tierInstance(name string) *sectorpack.Instance {
	cfg, err := gen.Tier(name)
	if err != nil {
		panic(err) // static tier names; cannot fail
	}
	return sectorpack.MustGenerate(cfg)
}

// benchPrewarm measures engine construction + Prewarm (the columnar sort,
// per-antenna sweep gathers, and density orders) at the given worker cap.
func benchPrewarm(name string, in *sectorpack.Instance, workers int) microBench {
	prev := angular.SetMaxWorkers(workers)
	defer angular.SetMaxWorkers(prev)
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng := angular.NewEngine(in)
			if err := eng.Prewarm(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	})
	return record(name, workers, r)
}

// tierBenchmarks runs the large-instance entries.
func tierBenchmarks(big bool) []microBench {
	var out []microBench
	in100k := tierInstance("100k")
	out = append(out,
		benchPrewarm("engine/n100k/scalar", in100k, 1),
		benchPrewarm("engine/n100k/parallel", in100k, tierWorkers),
	)
	opt := sectorpack.Options{Seed: 1, SkipBound: true}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sectorpack.Solve(context.Background(), "baseline", in100k, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	out = append(out, record("baseline/n100k", angular.Workers(), r))
	out = append(out, sessionBenchmarks()...)
	if !big {
		return out
	}
	in1m := tierInstance("1m")
	out = append(out, benchPrewarm("engine/n1m/parallel", in1m, tierWorkers))
	r = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sectorpack.Solve(context.Background(), "baseline", in1m, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	out = append(out, record("baseline/n1m", angular.Workers(), r))
	return out
}

// sessionBenchmarks measures the delta-session claim on the 100k-churn
// tier: the cost of absorbing one localized 1% churn step through a warm
// session.Apply, against the from-scratch greedy solve (engine build
// included) a stateless client would run on the churned instance. Both run
// the same solver with the same options, so the entries are directly
// comparable; the acceptance target is delta >= 5x faster than scratch.
func sessionBenchmarks() []microBench {
	cfg, err := gen.Tier("100k-churn")
	if err != nil {
		panic(err) // static tier name; cannot fail
	}
	tr := gen.MustGenerateTrace(gen.ChurnConfig{Base: cfg, Localized: true})
	opt := sectorpack.Options{Seed: 1, SkipBound: true}

	// From scratch: materialize the first churned state once, then time the
	// full stateless pipeline — engine construction, every sweep, and the
	// greedy solve — that a client without a session pays per step.
	churned, err := model.ApplyDelta(tr.Instance, tr.Deltas[0])
	if err != nil {
		panic(err) // GenerateTrace validated the delta; cannot fail
	}
	var out []microBench
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sectorpack.Solve(context.Background(), "greedy", churned, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	out = append(out, record("session/scratch-n100k", angular.Workers(), r))

	// Delta path: a warm session absorbs the trace's churn steps one Apply
	// per iteration. Each delta is only valid against the state it was
	// generated from, so when the trace runs out the session is rebuilt
	// from the base instance with the timer stopped — only Apply is timed.
	newSession := func(b *testing.B) *session.Session {
		s, err := session.New(context.Background(), tr.Instance,
			session.Options{Solver: "greedy", Core: opt})
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	r = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		b.StopTimer()
		sess := newSession(b)
		idx := 0
		b.StartTimer()
		for i := 0; i < b.N; i++ {
			if idx == len(tr.Deltas) {
				b.StopTimer()
				sess = newSession(b)
				idx = 0
				b.StartTimer()
			}
			if _, err := sess.Apply(context.Background(), tr.Deltas[idx]); err != nil {
				b.Fatal(err)
			}
			idx++
		}
	})
	out = append(out, record("session/delta-n100k", angular.Workers(), r))
	return out
}

// loadBenchReport reads a BENCH_<date>.json written by writeBenchJSON.
func loadBenchReport(path string) (*benchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep benchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("parse baseline %s: %w", path, err)
	}
	return &rep, nil
}

// compareTolerance gates -compare: a micro benchmark more than 25% worse
// than its baseline fails the run.
const compareTolerance = 1.25

// benchRatio is current/baseline, treating a zero baseline as regressed
// only when the current value is nonzero.
func benchRatio(cur, old float64) float64 {
	if old <= 0 {
		if cur <= 0 {
			return 1
		}
		return math.Inf(1)
	}
	return cur / old
}

// compareBenchmarks re-runs the micro benchmarks and gates them against a
// committed baseline report, returning an error (→ non-zero exit) when any
// gated measurement regressed past compareTolerance. metric picks which
// measurements gate: allocs/op is deterministic and comparable across
// machines (the CI setting), ns/op only means something on the machine that
// recorded the baseline, both gates on either. A benchmark with no baseline
// entry fails the comparison — an ungated benchmark is a silent hole in the
// regression fence — unless allowMissing is set, which is how a new
// benchmark lands in the same change that introduces it, before the
// baseline is regenerated.
func compareBenchmarks(out io.Writer, baselinePath, metric string, big, allowMissing bool) error {
	switch metric {
	case "allocs", "ns", "both":
	default:
		return fmt.Errorf("invalid -compare-metric %q (want allocs, ns, or both)", metric)
	}
	base, err := loadBenchReport(baselinePath)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "comparing micro benchmarks against %s (%s, %s), metric=%s, tolerance=%.0f%%\n",
		baselinePath, base.Date, base.GoVersion, metric, (compareTolerance-1)*100)
	return compareMicro(out, base, microBenchmarks(big), metric, allowMissing)
}

// compareMicro is the gate itself, split from compareBenchmarks so the
// pass/fail logic is testable without re-running real benchmarks.
func compareMicro(out io.Writer, base *benchReport, current []microBench, metric string, allowMissing bool) error {
	baseline := make(map[string]microBench, len(base.Micro))
	for _, m := range base.Micro {
		baseline[m.Name] = m
	}
	var regressions, missing []string
	for _, cur := range current {
		old, ok := baseline[cur.Name]
		if !ok {
			fmt.Fprintf(out, "%-22s ns/op %10.0f  allocs/op %8d  (no baseline entry)\n",
				cur.Name, cur.NsPerOp, cur.AllocsPerOp)
			missing = append(missing, cur.Name)
			continue
		}
		nsRatio := benchRatio(cur.NsPerOp, old.NsPerOp)
		allocRatio := benchRatio(float64(cur.AllocsPerOp), float64(old.AllocsPerOp))
		fmt.Fprintf(out, "%-22s ns/op %10.0f -> %10.0f (%.2fx)  allocs/op %8d -> %8d (%.2fx)\n",
			cur.Name, old.NsPerOp, cur.NsPerOp, nsRatio, old.AllocsPerOp, cur.AllocsPerOp, allocRatio)
		if (metric == "ns" || metric == "both") && nsRatio > compareTolerance {
			regressions = append(regressions, fmt.Sprintf("%s ns/op %.2fx", cur.Name, nsRatio))
		}
		if (metric == "allocs" || metric == "both") && allocRatio > compareTolerance {
			regressions = append(regressions, fmt.Sprintf("%s allocs/op %.2fx", cur.Name, allocRatio))
		}
	}
	if len(missing) > 0 && !allowMissing {
		return fmt.Errorf("no baseline entry for %s: regenerate the baseline with -json, or pass -compare-allow-missing to land the new benchmark first",
			strings.Join(missing, ", "))
	}
	if len(regressions) > 0 {
		return fmt.Errorf("benchmark regression past %.0f%%: %s", (compareTolerance-1)*100, strings.Join(regressions, "; "))
	}
	fmt.Fprintln(out, "benchmark compare passed")
	return nil
}

// writeBenchJSON writes BENCH_<date>.json into dir and returns its path.
func writeBenchJSON(dir string, quick, big bool, exps []expTiming) (string, error) {
	rep := benchReport{
		Date:        time.Now().Format("2006-01-02"),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		Quick:       quick,
		Experiments: exps,
		Micro:       microBenchmarks(big),
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "BENCH_"+rep.Date+".json")
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}
