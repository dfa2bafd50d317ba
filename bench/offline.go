package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"sectorpack"
	"sectorpack/internal/angular"
	"sectorpack/internal/core"
	"sectorpack/internal/gen"
	"sectorpack/internal/model"
)

var profitRE = regexp.MustCompile(`solution +greedy: profit=(\d+)`)

// cliOptions are the solve options `sectorpack -solver greedy -bound=false`
// uses.
var cliOptions = core.Options{Seed: 1, SkipBound: true}

// runCLI runs `sectorpack -in path -solver greedy -bound=false` once and
// returns its CPU time and peak memory. The sample's status is 200 for exit
// code 0; its body is the CLI's output.
//
// The peak is the child's own VmHWM, polled while it runs. Its Maxrss
// would include the benchmark's memory: Go starts children with vfork, and
// Linux records the parent's high-water mark into the child's at exec.
func runCLI(ctx context.Context, e *env, path string, t0 time.Time, s *sample) (cpu time.Duration, peakMB float64) {
	cmd := exec.CommandContext(ctx, filepath.Join(e.bin, "sectorpack"), "-in", path, "-solver", "greedy", "-bound=false")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s.sent = time.Since(t0)
	s.due = s.sent
	if s.err = cmd.Start(); s.err == nil {
		done := make(chan struct{})
		polled := make(chan float64)
		go func() {
			var peak float64
			tick := time.NewTicker(hwmEvery)
			defer tick.Stop()
			for {
				select {
				case <-done:
					polled <- peak
					return
				default:
				}
				// Reads fail once the child has exited; the last good one stands.
				if mb, err := procMB(cmd.Process.Pid, "VmHWM"); err == nil {
					peak = mb
				}
				select {
				case <-done:
				case <-tick.C:
				}
			}
		}()
		s.err = cmd.Wait()
		close(done)
		peakMB = <-polled
		cpu = cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
	}
	s.done = time.Since(t0)
	s.body = out.Bytes()
	if s.err == nil {
		s.status = 200
	} else {
		s.err = fmt.Errorf("sectorpack: %v: %.300s", s.err, s.body)
	}
	return cpu, peakMB
}

// hwmEvery is how often runCLI reads the CLI's memory high-water mark.
const hwmEvery = 10 * time.Millisecond

// cliLoop runs the CLI back to back for dur and returns the runs, their
// CPU time in all and the peak memory of each. late is the gap between one
// run's exit and the next one's start.
func cliLoop(ctx context.Context, e *env, path string, dur time.Duration, onDone func(*sample)) (samples []sample, cpu time.Duration, peakMB []float64) {
	t0 := time.Now()
	ready := time.Duration(0)
	for k := 0; time.Since(t0) < dur && ctx.Err() == nil; k++ {
		s := sample{input: k}
		c, mb := runCLI(ctx, e, path, t0, &s)
		cpu, peakMB = cpu+c, append(peakMB, mb)
		s.late = s.sent - ready
		ready = s.done
		if onDone != nil {
			onDone(&s)
		}
		samples = append(samples, s)
	}
	return samples, cpu, peakMB
}

func runOffline(ctx context.Context, e *env) (*result, error) {
	res := &result{workload: "offline-100k", tail: 75}
	// The tier instance itself, its customers in an order drawn from the
	// seed: distinct instances of this size differ in solve cost by up to a
	// quarter, an order permutation does not.
	cfg, err := gen.Tier("100k-churn")
	if err != nil {
		return nil, err
	}
	cfg.N = e.p.offlineN
	tier, err := gen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	in := tier.Clone()
	for i, j := range rand.New(rand.NewSource(genSeed(e.seed, 4_000_000))).Perm(in.N()) {
		in.Customers[i] = tier.Customers[j]
	}
	in.Normalize()
	path := filepath.Join(e.dir, "offline.json")
	if err := model.SaveFile(path, in); err != nil {
		return nil, err
	}
	tiny, err := gen.Generate(gen.Config{Family: gen.Uniform, Seed: genSeed(e.seed, 4_000_001), N: 4, M: 2})
	if err != nil {
		return nil, err
	}
	tinyPath := filepath.Join(e.dir, "tiny.json")
	if err := model.SaveFile(tinyPath, tiny); err != nil {
		return nil, err
	}
	ref, err := sectorpack.Solve(ctx, "greedy", in, cliOptions)
	if err != nil {
		return nil, err
	}

	if e.traced() {
		return traceOffline(ctx, e, path, ref.Profit, res)
	}

	// The CLI has no server to start; its set-up is its own start-up, the
	// whole run on a 4-customer instance.
	var setups []float64
	for start := time.Now(); !enoughSetups(len(setups), start); {
		var s sample
		cpu, _ := runCLI(ctx, e, tinyPath, time.Now(), &s)
		if s.err != nil {
			return nil, s.err
		}
		setups = append(setups, cpu.Seconds())
	}
	var runs []sample
	var peaks []float64
	var cpu, busy time.Duration
	m, err := measure(e, nil, func() error {
		block, c, mb := cliLoop(ctx, e, path, e.seconds/runBlocks, nil)
		runs, peaks = append(runs, block...), append(peaks, mb...)
		cpu, busy = cpu+c, busy+lastDone(block)
		return ctx.Err()
	})
	if err != nil {
		return nil, err
	}
	m.cpu, m.rssMB = cpu, median(peaks)
	res.count(runs)
	res.setEndToEnd(summarize(runs, res.tail), busy, m, setups)
	res.checkCLIAnswers(runs, ref.Profit)
	return res, nil
}

// checkCLIAnswers is the offline oracle: every run's profit must equal the
// in-process sectorpack.Solve profit.
func (r *result) checkCLIAnswers(runs []sample, want int64) {
	for i := range runs {
		if !runs[i].ok() {
			continue
		}
		m := profitRE.FindSubmatch(runs[i].body)
		if m == nil {
			r.mismatchf("run %d: no profit in output %.200q", i, runs[i].body)
			continue
		}
		if got, _ := strconv.ParseInt(string(m[1]), 10, 64); got != want {
			r.mismatchf("run %d: profit %d, in-process %d", i, got, want)
		}
	}
}

// traceOffline is the traced run of offline-100k: an untraced and a traced
// phase of CLI runs, then the in-process replay of the CLI's pipeline.
func traceOffline(ctx context.Context, e *env, path string, want int64, res *result) (*result, error) {
	phase := e.seconds / 4
	plain, _, _ := cliLoop(ctx, e, path, phase, nil)
	traced, _, _ := cliLoop(ctx, e, path, phase, func(s *sample) { e.rec.clientSpan("client.run", s) })
	runs := append(plain, traced...)
	res.count(runs)
	res.checkCLIAnswers(runs, want)
	late := make([]float64, len(traced))
	for i := range traced {
		late[i] = ms(traced[i].late)
	}
	extra := map[string]float64{
		"bench.lateness_p99_ms": quantile(late, 99),
		"trace.overhead":        ratio(summarize(traced, res.tail).p50, summarize(plain, res.tail).p50) - 1,
	}
	for k := 0; k < e.p.replayRuns; k++ {
		profit, err := replayCLI(ctx, e, path, k)
		if err != nil {
			return nil, err
		}
		if profit != want {
			res.mismatchf("replay %d: profit %d, sectorpack.Solve %d", k, profit, want)
		}
	}
	res.setPerLayer(e.rec.snapshot(), extra)
	return res, nil
}

// replayCLI replays what `sectorpack -solver greedy -bound=false` does, one
// span per public call.
func replayCLI(ctx context.Context, e *env, path string, k int) (int64, error) {
	rec := e.rec
	runtime.LockOSThread() // see replayDeltas
	defer runtime.UnlockOSThread()
	root := rec.root("run", "replay-"+strconv.Itoa(k))
	var in *model.Instance
	var err error
	rec.do(root, "model.load", func() { in, err = model.LoadFile(path) })
	if err != nil {
		return 0, err
	}
	var eng *angular.Engine
	rec.do(root, "cols.new", func() { eng = angular.NewEngine(in); eng.View() })
	rec.do(root, "angular.prewarm", func() { err = eng.Prewarm(ctx) })
	if err != nil {
		return 0, err
	}
	var sol model.Solution
	rec.do(root, "core.greedy_warm", func() { sol, err = core.SolveGreedyWarm(ctx, in, cliOptions, eng) })
	if err != nil {
		return 0, err
	}
	rec.do(root, "model.check", func() { err = sol.Assignment.Check(in) })
	rec.end(root)
	return sol.Profit, err
}
