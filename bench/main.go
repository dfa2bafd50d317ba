// Command bench is the repository benchmark. It builds sectord,
// sectorproxy and sectorpack from the checkout, drives one of four seeded
// workloads against them as separate processes, checks every answer, and
// prints the end-to-end metrics. With -trace it instead measures the same
// workload layer by layer: a traced load phase plus an in-process replay of
// the inputs through each layer's public functions, written out as spans.
//
// Run it from the repository root through bench/run.sh; see bench/README.md
// for the workloads, the metrics and what each is expected to move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// params are the workload sizes and rates. They are fixed in code; the
// tests use a smaller set.
type params struct {
	hotPool      int     // distinct bodies in solve-hot's pool
	hotN         [2]int  // their customer counts, spread evenly over this range
	hotRate      float64 // solve-hot open-loop rate, requests/s
	coldPool     int     // generated instances solve-cold's requests vary
	coldN        []int   // their customer counts, cycled
	coldRate     float64 // solve-cold open-loop rate of a traced run, requests/s
	sessionN     int     // customers per session-churn session
	deltaCeiling float64 // deltas/s per session a trace is generated for
	offlineN     int     // customers in the offline-100k instance
	replaySolves int     // /solve bodies replayed in a traced run
	replayDeltas int     // deltas replayed in a traced run
	replayRuns   int     // offline pipelines replayed in a traced run
	hopPairs     int     // proxied/direct pairs that measure the proxy hop
}

// The open-loop rates are a fifth (hot) and under half (cold) of what the
// servers sustain on a 2-CPU host that loses half its time to other
// guests, so no run builds a backlog on a slow stretch of the host.
var fullParams = params{
	hotPool: 32, hotN: [2]int{40, 150}, hotRate: 300,
	coldPool: 96, coldN: []int{100, 200, 400}, coldRate: 5,
	sessionN: 3000, deltaCeiling: 25,
	offlineN:     100_000,
	replaySolves: 200, replayDeltas: 50, replayRuns: 5, hopPairs: 200,
}

// A run sets up at least minSetupReps times and keeps repeating, up to
// maxSetupReps, until setupBudget has passed; set-up time is the median.
// Cheap set-ups (a few milliseconds) so get many more samples.
const (
	minSetupReps = 5
	maxSetupReps = 101
	setupBudget  = time.Second
)

// enoughSetups reports whether n set-ups, the first begun at start, are
// enough.
func enoughSetups(n int, start time.Time) bool {
	return n >= maxSetupReps || (n >= minSetupReps && time.Since(start) >= setupBudget)
}

// runBlocks is how many blocks an untraced run splits its load into.
const runBlocks = 5

// measurement is what an untraced run's load phase measured.
type measurement struct {
	cpu   time.Duration // CPU time of the programs under test over the load
	rssMB float64       // their memory: the servers' median resident set
	scale float64       // host speed scale, see speedProbe
}

// measure runs block runBlocks times, with a speed sample before each and
// after the last, while it samples the servers' memory. Without servers
// only the scale is measured.
func measure(e *env, servers []*server, block func() error) (m measurement, err error) {
	probe := newSpeedProbe(e.nproc)
	before, err := serversCPU(servers)
	if err != nil {
		return m, err
	}
	rss := sampleRSS(servers)
	for b := 0; b < runBlocks && err == nil; b++ {
		probe.sample()
		err = block()
	}
	probe.sample()
	rssMB, rerr := rss.median()
	after, cerr := serversCPU(servers)
	for _, e := range []error{rerr, cerr} {
		if err == nil {
			err = e
		}
	}
	return measurement{cpu: after - before, rssMB: rssMB, scale: probe.scale()}, err
}

// env is what one workload run needs.
type env struct {
	dir, bin string // scratch directory of this run, built programs
	seed     int64
	seconds  time.Duration
	nproc    int
	p        params
	rec      *recorder // nil when untraced
	hc       *http.Client
}

func (e *env) traced() bool { return e.rec != nil }

// repeatSetup sets up as enoughSetups says (once when traced), keeping the
// last set-up running, and returns the CPU seconds each set-up cost the
// servers: all they have run since they started, which is the set-up.
func repeatSetup(e *env, setup func(rep int) (*fleet, error)) (*fleet, []float64, error) {
	start := time.Now()
	var times []float64
	for r := 0; ; r++ {
		f, err := setup(r)
		if err != nil {
			return nil, nil, err
		}
		cpu, err := serversCPU(f.servers)
		if err != nil {
			f.stop()
			return nil, nil, err
		}
		times = append(times, cpu.Seconds())
		if e.traced() || enoughSetups(r+1, start) {
			return f, times, nil
		}
		f.stop()
		e.hc.CloseIdleConnections()
	}
}

type workload struct {
	name string
	run  func(context.Context, *env) (*result, error)
}

var workloads = []workload{
	{"solve-hot", runSolveHot},
	{"solve-cold", runSolveCold},
	{"session-churn", runSessionChurn},
	{"offline-100k", runOffline},
}

// metricDef is one metric of BENCHMARK.json.
type metricDef struct{ name, unit, better string }

// endToEnd are the metrics an untraced run reports, in BENCHMARK.json order.
// The times are CPU time, not wall time: see README.md for why.
var endToEnd = []metricDef{
	{"cpu_ms_per_op", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"rss_mb", "MB", "lower"},
}

// perLayer are the metrics a traced run reports, in BENCHMARK.json order.
// A time metric named <layer>_ms or <layer>_us is the median over replayed
// inputs of the time spent in spans named <layer>; a layer the workload
// never calls reads 0.
var perLayer = []metricDef{
	{"core.upper_bound_ms", "ms", "lower"},
	{"core.bound_share", "ratio", "lower"},
	{"core.solve_ms", "ms", "lower"},
	{"core.verify_us", "us", "lower"},
	{"model.decode_us", "us", "lower"},
	{"daemon.encode_us", "us", "lower"},
	{"daemon.response_bytes", "bytes", "lower"},
	{"daemon.handle_ms", "ms", "lower"},
	{"daemon.transport_ms", "ms", "lower"},
	{"daemon.shed_ratio", "ratio", "lower"},
	{"cache.fingerprint_us", "us", "lower"},
	{"cache.get_us", "us", "lower"},
	{"cache.hit_ratio", "ratio", "higher"},
	{"cache.routing_key_us", "us", "lower"},
	{"proxy.hop_ms", "ms", "lower"},
	{"proxy.failovers", "count", "lower"},
	{"model.load_ms", "ms", "lower"},
	{"cols.new_ms", "ms", "lower"},
	{"angular.prewarm_ms", "ms", "lower"},
	{"core.greedy_warm_ms", "ms", "lower"},
	{"model.check_ms", "ms", "lower"},
	{"model.apply_delta_ms", "ms", "lower"},
	{"cols.rebase_ms", "ms", "lower"},
	{"angular.rebase_ms", "ms", "lower"},
	{"session.apply_ms", "ms", "lower"},
	{"session.steps_reused_ratio", "ratio", "higher"},
	{"session.sweeps_kept_ratio", "ratio", "higher"},
	{"session.journal_append_us", "us", "lower"},
	{"bench.lateness_p99_ms", "ms", "lower"},
	{"trace.coverage", "ratio", "higher"},
	{"trace.overhead", "ratio", "lower"},
}

type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	Note  string  `json:"note,omitempty"`
}

// result is one workload run.
type result struct {
	workload   string
	tail       float64 // fixed tail percentile of latency_tail_ms
	attempted  int
	failed     int
	mismatches int
	messages   []string // the first oracle mismatches
	invalid    []string // validity guards that tripped
	metrics    []metric
	notes      []string // lines printed under the table
	spans      []span   // traced runs only
}

func (r *result) count(samples []sample) {
	r.attempted += len(samples)
	for i := range samples {
		if !samples[i].ok() {
			r.failed++
			if len(r.messages) < 5 {
				r.messages = append(r.messages, fmt.Sprintf("request failed: %v", samples[i].err))
			}
		}
	}
}

func (r *result) mismatchf(format string, args ...any) {
	r.mismatches++
	r.failed++
	if len(r.messages) < 5 {
		r.messages = append(r.messages, "answer mismatch: "+fmt.Sprintf(format, args...))
	}
}

func (r *result) invalidf(format string, args ...any) {
	r.invalid = append(r.invalid, fmt.Sprintf(format, args...))
}

// setEndToEnd sets the end-to-end metrics of a run whose operations cost
// the programs under test m.cpu in all, with CPU times multiplied by the
// host speed scale, and notes the wall-clock figures beside them; busy is
// the wall time the operations took.
func (r *result) setEndToEnd(st phaseStats, busy time.Duration, m measurement, setups []float64) {
	perOp := ratio(ms(m.cpu), float64(st.okN))
	r.metrics = []metric{
		{Name: "cpu_ms_per_op", Unit: "ms", Value: perOp * m.scale,
			Note: fmt.Sprintf("measured %.6g; %.3f CPU-s over %d ops", perOp, m.cpu.Seconds(), st.okN)},
		{Name: "setup_s", Unit: "s", Value: median(setups) * m.scale,
			Note: fmt.Sprintf("measured %.6g CPU-s; median of %d set-ups", median(setups), len(setups))},
		{Name: "rss_mb", Unit: "MB", Value: m.rssMB},
	}
	tail := fmt.Sprintf("p%g %.3f ms of %d samples", r.tail, st.tail, st.n)
	if supportedTail(st.n) < r.tail {
		tail += fmt.Sprintf(" (too few for p%g, it needs %d beyond)", r.tail, minBeyond)
	}
	r.notes = append(r.notes,
		fmt.Sprintf("host speed scale %.4f: the CPU times above are the measured ones times it", m.scale),
		fmt.Sprintf("wall clock, not gated: latency p50 %.3f ms, %s; %.4g ops/s", st.p50, tail, ratio(float64(st.okN), busy.Seconds())),
		fmt.Sprintf("error_rate %.4f (%d failed of %d attempted)", ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted))
}

// setPerLayer derives the per-layer metrics from the spans and the
// workload's load-phase measurements, in catalog order.
func (r *result) setPerLayer(spans []span, extra map[string]float64) {
	times := layerTimes(spans)
	vals := map[string]float64{}
	for name, ds := range times {
		vals[name+"_ms"] = medianOf(ds, ms)
		vals[name+"_us"] = medianOf(ds, us)
	}
	bound, solve := sumOf(times["core.upper_bound"]), sumOf(times["core.solve"])
	vals["core.bound_share"] = ratio(float64(bound), float64(bound+solve))
	vals["trace.coverage"] = coverage(spans)
	for k, v := range extra {
		vals[k] = v
	}
	r.metrics = nil
	for _, d := range perLayer {
		r.metrics = append(r.metrics, metric{Name: d.name, Unit: d.unit, Value: vals[d.name]})
	}
	for _, root := range []string{"solve", "delta"} {
		if sums := rootDurations(spans, root); len(sums) > 0 {
			r.notes = append(r.notes, fmt.Sprintf("replayed layer sum p50 %.3f ms over %d inputs; daemon.handle_ms p50 %.3f ms",
				median(sums), len(sums), vals["daemon.handle_ms"]))
		}
	}
	r.spans = spans
}

// loadLayers derives the per-layer metrics a traced load phase measures
// from outside the servers.
func loadLayers(samples []sample) map[string]float64 {
	var handle, transport, size, late []float64
	shed, hits, oks := 0, 0, 0
	for i := range samples {
		s := &samples[i]
		late = append(late, ms(s.late))
		if s.status == http.StatusTooManyRequests {
			shed++
		}
		if !s.ok() {
			continue
		}
		oks++
		if s.cache == "hit" || s.cache == "collapsed" {
			hits++
		}
		if el, ok := elapsedMS(s.body); ok {
			handle = append(handle, el)
			transport = append(transport, ms(s.done-s.sent)-el)
		}
		size = append(size, float64(len(s.body)))
	}
	return map[string]float64{
		"daemon.handle_ms":      median(handle),
		"daemon.transport_ms":   median(transport),
		"daemon.shed_ratio":     ratio(float64(shed), float64(len(samples))),
		"daemon.response_bytes": median(size),
		"cache.hit_ratio":       ratio(float64(hits), float64(oks)),
		"bench.lateness_p99_ms": quantile(late, 99),
	}
}

// elapsedMS reads the server's elapsed_ms from a response body without
// decoding the rest of it.
func elapsedMS(body []byte) (float64, bool) {
	const key = `"elapsed_ms":`
	i := strings.Index(string(body), key)
	if i < 0 {
		return 0, false
	}
	rest := strings.TrimLeft(string(body[i+len(key):]), " ")
	end := strings.IndexAny(rest, ",}\n")
	if end < 0 {
		return 0, false
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest[:end]), 64)
	return v, err == nil
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: solve-hot, solve-cold, session-churn or offline-100k (empty: all four)")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Int("seconds", 20, "seconds each workload measures for")
	jsonPath := fs.String("json", "", "also write the full result, with the run header, to this file")
	trace := fs.String("trace", "0", "0: untraced run; 1: traced run, spans to .bench_build/spans-<workload>.json; any other value: traced run, spans to that file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var selected []workload
	for _, w := range workloads {
		if *name == "" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 || *seconds < 1 {
		fmt.Fprintf(stderr, "bench: unknown workload %q or bad -seconds %d\n", *name, *seconds)
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, p: fullParams, traced: *trace != "0", spans: *trace}
	if cfg.spans == "1" {
		cfg.spans = ""
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	rep, err := runWorkloads(ctx, root, cfg, selected, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	rep.print(stdout, stderr, len(selected) == 1)
	if *jsonPath != "" {
		if err := rep.writeJSON(*jsonPath); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if !rep.ok() {
		return 1
	}
	return 0
}

// runConfig is what the flags select.
type runConfig struct {
	seed    int64
	seconds time.Duration
	p       params
	traced  bool
	spans   string // spans file of a traced run; empty: the default under .bench_build
}

// findRoot returns the checkout the benchmark runs in: the working
// directory, or its parent when run from bench/.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "sectord")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("run from the repository root: no cmd/sectord here")
}

// header records what a result was measured on.
type header struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Traced     bool   `json:"traced"`
	JournalFS  string `json:"journal_fs"`
}

func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}

type report struct {
	Header  header `json:"header"`
	results []*result
}

func runWorkloads(ctx context.Context, root string, cfg runConfig, selected []workload, stderr io.Writer) (*report, error) {
	build := filepath.Join(root, ".bench_build")
	bin := filepath.Join(build, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return nil, err
	}
	if err := buildBinaries(ctx, root, bin); err != nil {
		return nil, err
	}
	rep := &report{Header: header{
		Commit: commit(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: cfg.seed, Seconds: int(cfg.seconds / time.Second), Traced: cfg.traced, JournalFS: fsType(build),
	}}
	nproc := runtime.NumCPU()
	hc := newHTTPClient(nproc)
	defer hc.CloseIdleConnections()
	for _, w := range selected {
		dir, err := os.MkdirTemp(build, "run-")
		if err != nil {
			return nil, err
		}
		e := &env{dir: dir, bin: bin, seed: cfg.seed, seconds: cfg.seconds, nproc: nproc, p: cfg.p, hc: hc}
		if cfg.traced {
			e.rec = newRecorder()
		}
		res, err := w.run(ctx, e)
		hc.CloseIdleConnections()
		os.RemoveAll(dir)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		if cfg.traced {
			path := cfg.spans
			if path == "" {
				path = filepath.Join(build, "spans-"+w.name+".json")
			} else if len(selected) > 1 {
				path = strings.TrimSuffix(path, filepath.Ext(path)) + "-" + w.name + filepath.Ext(path)
			}
			if err := writeSpans(path, res.spans, res.metrics); err != nil {
				return nil, err
			}
			res.notes = append(res.notes, "spans written to "+path)
		}
		rep.results = append(rep.results, res)
	}
	return rep, nil
}

func (rep *report) ok() bool {
	for _, r := range rep.results {
		if r.mismatches > 0 || len(r.invalid) > 0 {
			return false
		}
	}
	return true
}

// print writes the header, one row per metric, the notes, and as the last
// line the JSON summary. With one workload the metric keys are the bare
// names; with several they are prefixed with the workload.
func (rep *report) print(stdout, stderr io.Writer, single bool) {
	h := rep.Header
	fmt.Fprintf(stdout, "# commit=%s go=%s nproc=%d gomaxprocs=%d seed=%d seconds=%d traced=%v journal_fs=%s\n",
		h.Commit, h.GoVersion, h.NumCPU, h.GOMAXPROCS, h.Seed, h.Seconds, h.Traced, h.JournalFS)
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	summary := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, r := range rep.results {
		for _, m := range r.metrics {
			fmt.Fprintf(stdout, "%-14s %-28s %14.6g %-6s %s\n", r.workload, m.Name, m.Value, m.Unit, m.Note)
			key := m.Name
			if !single {
				key = r.workload + "." + m.Name
			}
			summary.Metrics[key] = jsonMetric{m.Value, m.Unit}
		}
		for _, n := range r.notes {
			fmt.Fprintf(stdout, "%-14s # %s\n", r.workload, n)
		}
		for _, m := range r.messages {
			fmt.Fprintf(stderr, "%s: %s\n", r.workload, m)
		}
		for _, m := range r.invalid {
			fmt.Fprintf(stderr, "%s: invalid run: %s\n", r.workload, m)
		}
		summary.Correct = summary.Correct && r.mismatches == 0
		summary.Attempted += r.attempted
		summary.Failed += r.failed
	}
	line, _ := json.Marshal(summary) // plain values; cannot fail
	fmt.Fprintln(stdout, string(line))
}

func (rep *report) writeJSON(path string) error {
	type wl struct {
		Workload   string   `json:"workload"`
		Attempted  int      `json:"attempted"`
		Failed     int      `json:"failed"`
		Mismatches int      `json:"mismatches"`
		Invalid    []string `json:"invalid,omitempty"`
		Metrics    []metric `json:"metrics"`
		Notes      []string `json:"notes,omitempty"`
	}
	out := struct {
		Header    header `json:"header"`
		Workloads []wl   `json:"workloads"`
	}{Header: rep.Header}
	for _, r := range rep.results {
		out.Workloads = append(out.Workloads, wl{r.workload, r.attempted, r.failed, r.mismatches, r.invalid, r.metrics, r.notes})
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
