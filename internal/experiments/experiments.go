// Package experiments defines the reproduction harness: experiments E1–E10,
// each validating one theoretical claim of the (theory-only) paper with a
// table or an ASCII-rendered figure. DESIGN.md carries the experiment
// index; EXPERIMENTS.md records expected-vs-measured.
//
// Every experiment is a deterministic function of (Options.Seed,
// Options.Quick); trials fan out over the sweep worker pool.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"sectorpack/internal/core"
	"sectorpack/internal/gen"
	"sectorpack/internal/model"
	"sectorpack/internal/stats"
	"sectorpack/internal/sweep"
)

// Options tunes a run.
type Options struct {
	// Quick shrinks sizes and trial counts for test/bench use.
	Quick bool
	// Seed offsets all instance seeds.
	Seed int64
	// Workers caps the sweep pool; zero means GOMAXPROCS.
	Workers int
}

// Report is an experiment's rendered outcome plus machine-readable
// findings for assertions in tests.
type Report struct {
	ID       string
	Title    string
	Tables   []*stats.Table
	Figures  []string
	Findings map[string]float64
}

// Render returns the full text form of the report.
func (r Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n\n", r.ID, r.Title)
	for _, t := range r.Tables {
		b.WriteString(t.Render())
		b.WriteByte('\n')
	}
	for _, f := range r.Figures {
		b.WriteString(f)
		b.WriteByte('\n')
	}
	return b.String()
}

// Experiment is a registered experiment.
type Experiment struct {
	ID    string
	Title string
	// Claim is the theoretical statement the experiment validates.
	Claim string
	Run   func(Options) (Report, error)
}

var registry = map[string]Experiment{}

func register(e Experiment) { registry[e.ID] = e }

// Get returns the experiment with the given ID.
func Get(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return Experiment{}, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
	}
	return e, nil
}

// IDs lists registered experiment IDs in order E1..E10.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Slice(out, func(a, b int) bool {
		// numeric sort on the suffix
		var na, nb int
		fmt.Sscanf(out[a], "E%d", &na)
		fmt.Sscanf(out[b], "E%d", &nb)
		return na < nb
	})
	return out
}

// All returns every experiment in ID order.
func All() []Experiment {
	ids := IDs()
	out := make([]Experiment, len(ids))
	for i, id := range ids {
		out[i], _ = Get(id)
	}
	return out
}

// Run executes the experiment with the given ID.
func Run(id string, opt Options) (Report, error) {
	e, err := Get(id)
	if err != nil {
		return Report{}, err
	}
	return e.Run(opt)
}

// --- shared helpers ---

// trial is a generated instance paired with solver outcomes.
type solveOutcome struct {
	Profit  int64
	Bound   float64
	Elapsed time.Duration
}

// runSolver times one solver on one instance and verifies feasibility.
// Experiments are batch workloads with no deadline, so the solve runs
// under context.Background().
func runSolver(name string, in *model.Instance, opt core.Options) (solveOutcome, error) {
	solver, err := core.Get(name)
	if err != nil {
		return solveOutcome{}, err
	}
	start := time.Now()
	sol, err := solver(context.Background(), in, opt)
	elapsed := time.Since(start)
	if err != nil {
		return solveOutcome{}, fmt.Errorf("%s on %s: %w", name, in.Name, err)
	}
	if err := core.VerifySolution(name, in, sol); err != nil {
		return solveOutcome{}, fmt.Errorf("%s on %s: %w", name, in.Name, err)
	}
	return solveOutcome{Profit: sol.Profit, Bound: sol.UpperBound, Elapsed: elapsed}, nil
}

// parallelMap fans f over the inputs with the experiment's worker pool.
func parallelMap[In, Out any](opt Options, inputs []In, f func(In) (Out, error)) ([]Out, error) {
	return sweep.Map(context.Background(), inputs,
		func(_ context.Context, in In) (Out, error) { return f(in) },
		sweep.Options{Workers: opt.Workers})
}

// pick returns quick when Options.Quick is set, full otherwise.
func pick[T any](opt Options, full, quick T) T {
	if opt.Quick {
		return quick
	}
	return full
}

// ratioOf guards division by zero: equal-zero pairs count as ratio 1.
func ratioOf(num, den int64) float64 {
	if den == 0 {
		if num == 0 {
			return 1
		}
		return 0
	}
	return float64(num) / float64(den)
}

// cfgSeed derives a per-trial seed.
func cfgSeed(opt Options, k int) int64 { return opt.Seed*1_000_003 + int64(k)*7919 }

// mkConfigs builds one config per trial for a family/shape.
func mkConfigs(opt Options, fam gen.Family, variant model.Variant, n, m, trials int, mutate func(*gen.Config)) []gen.Config {
	out := make([]gen.Config, trials)
	for k := range out {
		cfg := gen.Config{Family: fam, Seed: cfgSeed(opt, k) + int64(n)*31 + int64(m)*17, N: n, M: m, Variant: variant}
		if mutate != nil {
			mutate(&cfg)
		}
		out[k] = cfg
	}
	return out
}
