// Command sectorpack solves a sector-packing instance file with a chosen
// algorithm and prints the solution.
//
// Usage:
//
//	sectorpack -in instance.json [-solver greedy] [-seed 1] [-eps 0.05] [-v] [-viz]
//	sectorpack -in big.json -solver baseline -bound=false
//	sectorpack -batch -in batch.json [-workers 4] [-timeout 5s]
//	sectorpack -in instance.json -server http://localhost:8377
//
// With -server, the solve runs on a sectord daemon instead of in-process:
// the request is a model.SolveRequest, the internal/sectorclient retry
// loop rides out shed load and daemon restarts, and the reply is a
// model.SolveResponse re-verified locally before printing. The daemon owns
// its solve settings, so -eps and -bound=false are local-only and rejected
// with -server before any request is sent.
//
// The instance format is the JSON envelope written by cmd/sectorgen (or
// model.WriteJSON). With -batch, -in names a multi-instance envelope
// (sectorgen -count, or model.WriteBatchJSON) solved concurrently on a
// bounded worker pool; each item succeeds or fails on its own. Solvers:
// anneal, auto, baseline, disjoint-dp, exact, greedy, localsearch, lpround,
// unitflow. Every local answer passes core.VerifySolution before it is
// printed.
//
// The fractional upper bound printed alongside the profit scans every
// customer for each candidate orientation — the per-antenna eligible
// count times n — so on the large generator tiers (n=100k and up) pass
// -bound=false to skip it; the solve itself stays fast.
//
// Exit codes: 0 = full solve, 1 = error (in batch mode: any item failed),
// 3 = the -timeout deadline expired and a degraded fallback result was
// served instead (stderr names the fallback solver; disable with
// -fallback=false to get a hard error). A batch where every item solved
// but some degraded also exits 3.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sectorpack/internal/core"
	"sectorpack/internal/geom"
	"sectorpack/internal/knapsack"
	"sectorpack/internal/model"
	"sectorpack/internal/sectorclient"
	"sectorpack/internal/viz"
)

// exitDegraded is the exit code for a degraded (fallback) solve, distinct
// from 0 (full solve) and 1 (error) so scripts can tell them apart.
const exitDegraded = 3

// degradedError signals main to exit with exitDegraded after run has
// already printed the degraded solution.
type degradedError struct {
	solverUsed string
	reason     string
	detail     string
}

func (e *degradedError) Error() string {
	return fmt.Sprintf("degraded result from fallback solver %q (%s: %s)", e.solverUsed, e.reason, e.detail)
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sectorpack:", err)
		var de *degradedError
		if errors.As(err, &de) {
			os.Exit(exitDegraded)
		}
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sectorpack", flag.ContinueOnError)
	fs.SetOutput(out)
	inPath := fs.String("in", "", "instance JSON file (required)")
	solverName := fs.String("solver", "greedy", "solver: "+strings.Join(core.Names(), ", "))
	seed := fs.Int64("seed", 1, "seed for randomized components")
	eps := fs.Float64("eps", 0, "force the FPTAS inner knapsack with this epsilon in (0,1) (0 = auto exact/approx)")
	timeout := fs.Duration("timeout", 0, "abort the solve after this long (0 = no deadline; Ctrl-C always cancels)")
	fallback := fs.Bool("fallback", true, "with -timeout: serve a greedy fallback result when the deadline expires (exit code 3) instead of failing")
	verbose := fs.Bool("v", false, "print the per-antenna breakdown")
	vizFlag := fs.Bool("viz", false, "draw an ASCII polar plot of the solution")
	batch := fs.Bool("batch", false, "treat -in as a multi-instance batch envelope (sectorgen -count)")
	server := fs.String("server", "", "solve remotely on a sectord daemon at this base URL (e.g. http://localhost:8377) instead of in-process")
	workers := fs.Int("workers", 0, "batch worker pool size (0 = GOMAXPROCS)")
	bound := fs.Bool("bound", true, "compute the fractional upper bound and optimality gap (every candidate angle of every antenna scans all n customers; use -bound=false at n=100k and above)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *inPath == "" {
		fs.Usage()
		return fmt.Errorf("missing -in")
	}
	if *eps != 0 && !knapsack.ValidEps(*eps) {
		return fmt.Errorf("-eps %v: want 0 (automatic) or a value in (0,1)", *eps)
	}
	if *server != "" {
		if *batch {
			return fmt.Errorf("-batch is not supported with -server (the daemon has its own /solve/batch route)")
		}
		if *eps > 0 {
			return fmt.Errorf("-eps is local-only; the daemon owns its knapsack settings")
		}
		if !*bound {
			return fmt.Errorf("-bound=false is local-only; the daemon always computes the bound")
		}
		return runRemote(ctx, out, remoteConfig{
			server:   *server,
			inPath:   *inPath,
			solver:   *solverName,
			seed:     *seed,
			timeout:  *timeout,
			fallback: *fallback,
			verbose:  *verbose,
			viz:      *vizFlag,
		})
	}
	if *batch {
		if *vizFlag {
			return fmt.Errorf("-viz is not supported with -batch")
		}
		return runBatch(ctx, out, batchConfig{
			inPath:   *inPath,
			solver:   *solverName,
			seed:     *seed,
			eps:      *eps,
			timeout:  *timeout,
			fallback: *fallback,
			workers:  *workers,
			verbose:  *verbose,
			bound:    *bound,
		})
	}
	in, err := model.LoadFile(*inPath)
	if err != nil {
		return err
	}
	solver, err := core.Get(*solverName)
	if err != nil {
		return err
	}
	opt := core.Options{Seed: *seed, SkipBound: !*bound}
	if *eps > 0 {
		opt.Knapsack.Eps = *eps
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var sol model.Solution
	if *timeout > 0 && *fallback {
		// Hedged: if the requested solver cannot beat the deadline (or
		// panics, or misbehaves), the greedy safety net's answer is
		// printed instead and main exits with the degraded code. The
		// hedge gates whichever answer it returns through VerifySolution.
		sol, err = core.SolveHedged(ctx, in, solver, core.HedgeOptions{
			Options:     opt,
			PrimaryName: *solverName,
		})
	} else if sol, err = solver(ctx, in, opt); err == nil {
		err = core.VerifySolution(*solverName, in, sol)
	}
	if err != nil {
		return err
	}
	return printSolution(out, in, sol, *solverName, *verbose, *vizFlag)
}

// printSolution renders the solve report shared by the local and remote
// paths, returning a degradedError when the answer came from a fallback.
func printSolution(out io.Writer, in *model.Instance, sol model.Solution, requested string, verbose, vizFlag bool) error {
	fmt.Fprintf(out, "instance   %s (%s, n=%d, m=%d, tightness=%.2f)\n",
		in.Name, in.Variant, in.N(), in.M(), in.Tightness())
	fmt.Fprintf(out, "solution   %s\n", sol)
	if sol.Degraded() {
		fmt.Fprintf(out, "degraded   requested %q fell back to %q (%s)\n",
			requested, sol.SolverUsed, sol.FallbackReason)
	}
	fmt.Fprintf(out, "served     %d/%d customers, demand %d/%d\n",
		sol.Assignment.ServedCount(), in.N(), sol.Assignment.ServedDemand(in), in.TotalDemand())
	if verbose {
		load := sol.Assignment.Load(in)
		for j, a := range in.Antennas {
			served := 0
			for _, owner := range sol.Assignment.Owner {
				if owner == j {
					served++
				}
			}
			fmt.Fprintf(out, "antenna %2d  α=%7.2f° ρ=%6.2f° load %d/%d (%d customers)\n",
				j, geom.Degrees(sol.Assignment.Orientation[j]), geom.Degrees(a.Rho),
				load[j], a.Capacity, served)
		}
	}
	if vizFlag {
		fmt.Fprint(out, viz.Render(in, sol.Assignment, viz.Options{Rays: true}))
	}
	if sol.Degraded() {
		return &degradedError{solverUsed: sol.SolverUsed, reason: sol.FallbackReason, detail: sol.FallbackDetail}
	}
	return nil
}

// remoteConfig carries the flag values into runRemote.
type remoteConfig struct {
	server   string
	inPath   string
	solver   string
	seed     int64
	timeout  time.Duration
	fallback bool
	verbose  bool
	viz      bool
}

// runRemote ships the instance to a sectord daemon and prints its answer.
// The client retries transient failures (shed load, restarts) on its own;
// any final answer but 200 is an error, wrapping ctx's error when the
// retries were cut short. A 200 is re-checked locally before printing, so
// a buggy or tampered daemon can cost an error, never an infeasible
// report.
func runRemote(ctx context.Context, out io.Writer, cfg remoteConfig) error {
	in, err := model.LoadFile(cfg.inPath)
	if err != nil {
		return err
	}
	body, err := json.Marshal(model.SolveRequest{
		Solver: cfg.solver, Seed: &cfg.seed, TimeoutMillis: cfg.timeout.Milliseconds(),
		FormatVersion: 1, Instance: in,
	})
	if err != nil {
		return err
	}
	path := "/solve"
	if cfg.timeout > 0 && cfg.fallback {
		path += "?degraded=allow"
	}
	resp, err := sectorclient.New(cfg.server, sectorclient.Options{}).Do(ctx, http.MethodPost, path, body)
	if err != nil {
		return err
	}
	if resp.Status != http.StatusOK {
		var reply struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(resp.Body, &reply) != nil || reply.Error == "" {
			reply.Error = string(bytes.TrimSpace(resp.Body))
		}
		answer := fmt.Errorf("sectord: %d %s: %s", resp.Status, http.StatusText(resp.Status), reply.Error)
		if ctx.Err() != nil {
			return fmt.Errorf("%w (last answer: %w)", ctx.Err(), answer)
		}
		return answer
	}
	var res model.SolveResponse
	if err := json.Unmarshal(resp.Body, &res); err != nil {
		return fmt.Errorf("sectord: bad solve response: %w", err)
	}
	as := &model.Assignment{Orientation: res.Orientation, Owner: res.Owner}
	if err := as.Check(in); err != nil {
		return fmt.Errorf("daemon returned infeasible assignment: %w", err)
	}
	if got := as.Profit(in); got != res.Profit {
		return fmt.Errorf("daemon profit claim %d does not match the assignment's %d", res.Profit, got)
	}
	if res.Degraded != (res.FallbackReason != "") {
		return fmt.Errorf("malformed daemon answer: degraded=%v with fallback reason %q", res.Degraded, res.FallbackReason)
	}
	sol := model.Solution{
		Assignment:     as,
		Profit:         res.Profit,
		Algorithm:      res.Algorithm,
		UpperBound:     res.UpperBound,
		SolverUsed:     res.SolverUsed,
		FallbackReason: res.FallbackReason,
		FallbackDetail: res.FallbackDetail,
	}
	if cache := resp.Header.Get("X-Sectord-Cache"); resp.Attempts > 1 || cache == "hit" {
		fmt.Fprintf(out, "remote     %s (attempts=%d cache=%s)\n", cfg.server, resp.Attempts, cache)
	}
	return printSolution(out, in, sol, cfg.solver, cfg.verbose, cfg.viz)
}

// batchConfig carries the flag values into runBatch.
type batchConfig struct {
	inPath   string
	solver   string
	seed     int64
	eps      float64
	timeout  time.Duration
	fallback bool
	workers  int
	verbose  bool
	bound    bool
}

// runBatch solves a multi-instance envelope on core.SolveBatch's worker
// pool and prints one line per item. Items fail (or, with -timeout and
// -fallback, degrade) independently; the batch always runs to completion.
func runBatch(ctx context.Context, out io.Writer, cfg batchConfig) error {
	ins, err := model.LoadBatchFile(cfg.inPath)
	if err != nil {
		return err
	}
	solver, err := core.Get(cfg.solver)
	if err != nil {
		return err
	}
	opt := core.Options{Seed: cfg.seed, SkipBound: !cfg.bound}
	if cfg.eps > 0 {
		opt.Knapsack.Eps = cfg.eps
	}
	start := time.Now()
	results := core.SolveBatch(ctx, ins, solver, core.BatchOptions{
		Options:     opt,
		SolverName:  cfg.solver,
		Workers:     cfg.workers,
		ItemTimeout: cfg.timeout,
		Hedged:      cfg.timeout > 0 && cfg.fallback,
	})
	fmt.Fprintf(out, "batch      %s: %d instances, solver %s\n", cfg.inPath, len(ins), cfg.solver)
	var ok, failed, degraded int
	var total int64
	for i, res := range results {
		in := ins[i]
		if res.Err != nil {
			failed++
			fmt.Fprintf(out, "[%d] %-20s ERROR: %v\n", i, in.Name, res.Err)
			continue
		}
		ok++
		sol := res.Solution
		total += sol.Profit
		status := ""
		if sol.Degraded() {
			degraded++
			status = fmt.Sprintf(" DEGRADED(%s→%s)", sol.FallbackReason, sol.SolverUsed)
		}
		fmt.Fprintf(out, "[%d] %-20s profit=%-8d served=%d/%d in %v%s\n",
			i, in.Name, sol.Profit, sol.Assignment.ServedCount(), in.N(),
			res.Elapsed.Round(time.Microsecond), status)
		if cfg.verbose {
			load := sol.Assignment.Load(in)
			for j, a := range in.Antennas {
				fmt.Fprintf(out, "    antenna %2d  α=%7.2f° ρ=%6.2f° load %d/%d\n",
					j, geom.Degrees(sol.Assignment.Orientation[j]), geom.Degrees(a.Rho),
					load[j], a.Capacity)
			}
		}
	}
	fmt.Fprintf(out, "total      profit=%d ok=%d failed=%d degraded=%d in %v\n",
		total, ok, failed, degraded, time.Since(start).Round(time.Millisecond))
	if failed > 0 {
		return fmt.Errorf("%d of %d batch items failed", failed, len(ins))
	}
	if degraded > 0 {
		return &degradedError{
			solverUsed: "greedy",
			reason:     "batch",
			detail:     fmt.Sprintf("%d of %d batch items served by the fallback", degraded, len(ins)),
		}
	}
	return nil
}
