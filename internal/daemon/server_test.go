package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sectorpack/internal/core"
	"sectorpack/internal/gen"
	"sectorpack/internal/model"
)

// sectorsInstance is a small unit-demand Sectors instance every registered
// solver can handle (unit demands keep unitflow happy, n=5 keeps exact
// cheap).
func sectorsInstance() *model.Instance {
	in := &model.Instance{
		Name:    "srv-sectors",
		Variant: model.Sectors,
		Customers: []model.Customer{
			{Theta: 0.1, R: 1, Demand: 1},
			{Theta: 0.5, R: 2, Demand: 1},
			{Theta: 1.2, R: 1, Demand: 1},
			{Theta: 3.0, R: 3, Demand: 1},
			{Theta: 5.5, R: 2, Demand: 1},
		},
		Antennas: []model.Antenna{
			{Rho: 1.0, Range: 5, Capacity: 3},
			{Rho: 1.5, Range: 5, Capacity: 3},
		},
	}
	return in.Normalize()
}

func disjointInstance() *model.Instance {
	in := &model.Instance{
		Name:    "srv-disjoint",
		Variant: model.DisjointAngles,
		Customers: []model.Customer{
			{Theta: 0.2, R: 1, Demand: 1},
			{Theta: 2.0, R: 1, Demand: 1},
			{Theta: 4.0, R: 1, Demand: 1},
		},
		Antennas: []model.Antenna{
			{Rho: 1.0, Capacity: 2},
			{Rho: 1.0, Capacity: 2},
		},
	}
	return in.Normalize()
}

func solveBody(t *testing.T, solver string, in *model.Instance, extra map[string]any) []byte {
	t.Helper()
	req := map[string]any{"solver": solver, "format_version": 1, "instance": in}
	for k, v := range extra {
		req[k] = v
	}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func postSolve(t *testing.T, client *http.Client, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := client.Post(url+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func TestSolveAllRegisteredSolvers(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{Timeout: 30 * time.Second}).Handler())
	defer ts.Close()
	for _, name := range core.Names() {
		if strings.HasPrefix(name, "test-") {
			continue // solvers injected by other tests in this package
		}
		in := sectorsInstance()
		if name == "disjoint-dp" {
			in = disjointInstance()
		}
		resp, body := postSolve(t, ts.Client(), ts.URL, solveBody(t, name, in, nil))
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d, body %s", name, resp.StatusCode, body)
			continue
		}
		var sr model.SolveResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Errorf("%s: bad response JSON: %v", name, err)
			continue
		}
		if sr.Solver != name || sr.Algorithm == "" {
			t.Errorf("%s: response names solver %q algorithm %q", name, sr.Solver, sr.Algorithm)
		}
		as := &model.Assignment{Orientation: sr.Orientation, Owner: sr.Owner}
		if err := as.Check(in); err != nil {
			t.Errorf("%s: returned infeasible assignment: %v", name, err)
		}
		if got := as.Profit(in); got != sr.Profit {
			t.Errorf("%s: profit %d but assignment recomputes to %d", name, sr.Profit, got)
		}
	}
}

// TestSolveBadRequests is the /solve and /solve/batch half of the route ×
// failure matrix (TestSessionBadRequests is the session half): every way a
// request can fail, with its exact status, body, headers and counter moves.
func TestSolveBadRequests(t *testing.T) {
	registerMatrixSolvers(t)
	solve := func(solver string, extra map[string]any) string {
		return string(solveBody(t, solver, sectorsInstance(), extra))
	}
	batch := func(solver string, in any, extra map[string]any) string {
		return string(batchBody(t, solver, []any{in}, extra))
	}
	badInstance := `{"variant":0,"customers":[{"id":0,"theta":0,"r":-2,"demand":1}],"antennas":[]}`
	deadline := map[string]any{"timeout_ms": 30}
	one := func(names ...string) map[string]int64 {
		m := map[string]int64{}
		for _, n := range names {
			m[n]++
		}
		return m
	}
	const batchNoCache = "hits=0,misses=0,collapsed=0,bypass=0"
	const panicMsg = `core: solver "test-rt-panic" panicked: injected matrix panic`
	const invalidMsg = "invalid instance: customer 0: invalid radius -2"
	unknown := unknownSolverMsg(t)
	runRouteMatrix(t, []routeCase{
		{name: "solve: wrong method", method: http.MethodGet, path: "/solve",
			status: 405, errMsg: "POST required", allow: "POST", vars: one("requests", "failures")},
		{name: "solve: shed", path: "/solve", body: solve("greedy", nil), shed: true,
			status: 429, errMsg: "server at capacity", retry: "1", vars: one("requests", "shed")},
		{name: "solve: bad degraded", path: "/solve?degraded=maybe", body: solve("greedy", nil),
			status: 400, errMsg: `invalid degraded="maybe" (want allow or deny)`, vars: one("requests", "failures")},
		{name: "solve: bad cache", path: "/solve?cache=maybe", body: solve("greedy", nil),
			status: 400, errMsg: `invalid cache="maybe" (want use or bypass)`, vars: one("requests", "failures")},
		{name: "solve: invalid JSON", path: "/solve", body: "{not json",
			status: 400, errMsg: "decode request: invalid character 'n' looking for beginning of object key string", vars: one("requests", "failures")},
		{name: "solve: bad format version", path: "/solve", body: solve("greedy", map[string]any{"format_version": 9}),
			status: 400, errMsg: "unsupported format_version 9 (want 1)", vars: one("requests", "failures")},
		{name: "solve: missing instance", path: "/solve", body: `{"solver":"greedy","format_version":1}`,
			status: 400, errMsg: "request missing instance", vars: one("requests", "failures")},
		{name: "solve: invalid instance", path: "/solve", body: `{"solver":"greedy","format_version":1,"instance":` + badInstance + `}`,
			status: 400, errMsg: invalidMsg, vars: one("requests", "failures")},
		{name: "solve: unknown solver", path: "/solve", body: solve("no-such-solver", nil),
			status: 400, errMsg: unknown, vars: one("requests", "failures")},
		{name: "solve: solver error", path: "/solve", body: solve("test-rt-error", nil),
			status: 400, errMsg: "solve failed: injected solver error", vars: one("requests", "failures")},
		{name: "solve: panic", path: "/solve", body: solve("test-rt-panic", nil),
			status: 500, errMsg: "solve failed: " + panicMsg, vars: one("requests", "panics")},
		{name: "solve: deadline", path: "/solve", body: solve("test-rt-hang", deadline),
			status: 503, errMsg: "solve aborted: context deadline exceeded", vars: one("requests", "cancellations")},

		{name: "batch: wrong method", method: http.MethodGet, path: "/solve/batch",
			status: 405, errMsg: "POST required", allow: "POST", vars: one("requests", "failures")},
		{name: "batch: shed", path: "/solve/batch", body: batch("greedy", sectorsInstance(), nil), shed: true,
			status: 429, errMsg: "server at capacity", retry: "1", vars: one("requests", "shed")},
		{name: "batch: bad degraded", path: "/solve/batch?degraded=maybe", body: batch("greedy", sectorsInstance(), nil),
			status: 400, errMsg: `invalid degraded="maybe" (want allow or deny)`, vars: one("requests", "failures")},
		{name: "batch: bad cache", path: "/solve/batch?cache=maybe", body: batch("greedy", sectorsInstance(), nil),
			status: 400, errMsg: `invalid cache="maybe" (want use or bypass)`, vars: one("requests", "failures")},
		{name: "batch: invalid JSON", path: "/solve/batch", body: "{not json",
			status: 400, errMsg: "decode request: invalid character 'n' looking for beginning of object key string", vars: one("requests", "failures")},
		{name: "batch: bad format version", path: "/solve/batch", body: batch("greedy", sectorsInstance(), map[string]any{"format_version": 9}),
			status: 400, errMsg: "unsupported format_version 9 (want 1)", vars: one("requests", "failures")},
		{name: "batch: missing instances", path: "/solve/batch", body: `{"solver":"greedy","format_version":1}`,
			status: 400, errMsg: "batch has no instances", vars: one("requests", "failures")},
		{name: "batch: invalid instance", path: "/solve/batch", body: batch("greedy", json.RawMessage(badInstance), nil),
			status: 200, itemErr: invalidMsg, cache: batchNoCache, vars: one("requests", "failures")},
		{name: "batch: unknown solver", path: "/solve/batch", body: batch("no-such-solver", sectorsInstance(), nil),
			status: 400, errMsg: unknown, vars: one("requests", "failures")},
		{name: "batch: solver error", path: "/solve/batch", body: batch("test-rt-error", sectorsInstance(), nil),
			status: 200, itemErr: "injected solver error", cache: batchNoCache, vars: one("requests", "failures")},
		{name: "batch: panic", path: "/solve/batch", body: batch("test-rt-panic", sectorsInstance(), nil),
			status: 200, itemErr: panicMsg, cache: batchNoCache, vars: one("requests", "panics")},
		{name: "batch: deadline", path: "/solve/batch", body: batch("test-rt-hang", sectorsInstance(), deadline),
			status: 200, itemErr: "context deadline exceeded", cache: batchNoCache, vars: one("requests", "cancellations")},
	})
}

func TestSolveAllowlist(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{Allowed: []string{"greedy"}}).Handler())
	defer ts.Close()
	resp, _ := postSolve(t, ts.Client(), ts.URL, solveBody(t, "greedy", sectorsInstance(), nil))
	if resp.StatusCode != http.StatusOK {
		t.Errorf("allowed solver: status %d, want 200", resp.StatusCode)
	}
	resp, body := postSolve(t, ts.Client(), ts.URL, solveBody(t, "localsearch", sectorsInstance(), nil))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("disallowed solver: status %d (want 400), body %s", resp.StatusCode, body)
	}
}

// registerBlockingSolver installs a solver that parks until release is
// closed (or its ctx ends), reporting entry on started.
func registerBlockingSolver(name string, started chan<- struct{}, release <-chan struct{}) {
	core.Register(name, func(ctx context.Context, in *model.Instance, opt core.Options) (model.Solution, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		select {
		case <-release:
			return model.Solution{
				Assignment: model.NewAssignment(in.N(), in.M()),
				Algorithm:  name,
			}, nil
		case <-ctx.Done():
			return model.Solution{}, ctx.Err()
		}
	})
}

func TestSolveDeadlineSurfacesContextError(t *testing.T) {
	started := make(chan struct{}, 1)
	registerBlockingSolver("test-park", started, nil)
	ts := httptest.NewServer(NewServer(Config{Timeout: time.Hour}).Handler())
	defer ts.Close()
	body := solveBody(t, "test-park", sectorsInstance(), map[string]any{"timeout_ms": 30})
	start := time.Now()
	resp, out := postSolve(t, ts.Client(), ts.URL, body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d (want 503), body %s", resp.StatusCode, out)
	}
	if !strings.Contains(string(out), context.DeadlineExceeded.Error()) {
		t.Errorf("body %q does not surface the context error", out)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("deadline response took %v, want prompt abort", elapsed)
	}
}

func TestSolveShedsAtCapacity(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	registerBlockingSolver("test-gate", started, release)
	ts := httptest.NewServer(NewServer(Config{MaxInflight: 1}).Handler())
	defer ts.Close()

	first := make(chan int, 1)
	go func() {
		resp, err := ts.Client().Post(ts.URL+"/solve", "application/json",
			bytes.NewReader(solveBody(t, "test-gate", sectorsInstance(), nil)))
		if err != nil {
			first <- -1
			return
		}
		resp.Body.Close()
		first <- resp.StatusCode
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("first request never reached the solver")
	}

	resp, body := postSolve(t, ts.Client(), ts.URL, solveBody(t, "greedy", sectorsInstance(), nil))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated server: status %d (want 429), body %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}

	close(release)
	if code := <-first; code != http.StatusOK {
		t.Fatalf("first request finished with %d, want 200", code)
	}
	// Capacity is free again.
	resp, body = postSolve(t, ts.Client(), ts.URL, solveBody(t, "greedy", sectorsInstance(), nil))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after drain: status %d, body %s", resp.StatusCode, body)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv := NewServer(Config{MaxInflight: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	postSolve(t, ts.Client(), ts.URL, solveBody(t, "greedy", sectorsInstance(), nil))
	postSolve(t, ts.Client(), ts.URL, []byte("{bad"))
	resp, _ := postSolve(t, ts.Client(), ts.URL, solveBody(t, "no-such", sectorsInstance(), nil))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("setup: unknown solver gave %d", resp.StatusCode)
	}

	vresp, err := ts.Client().Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer vresp.Body.Close()
	var vars map[string]json.RawMessage
	if err := json.NewDecoder(vresp.Body).Decode(&vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	intVar := func(name string) int64 {
		var v int64
		if err := json.Unmarshal(vars[name], &v); err != nil {
			t.Fatalf("var %s = %s: %v", name, vars[name], err)
		}
		return v
	}
	if got := intVar("sectord.requests"); got != 3 {
		t.Errorf("requests = %d, want 3", got)
	}
	if got := intVar("sectord.solved"); got != 1 {
		t.Errorf("solved = %d, want 1", got)
	}
	if got := intVar("sectord.failures"); got != 2 {
		t.Errorf("failures = %d, want 2", got)
	}
	var hist struct {
		Count   int64            `json:"count"`
		TotalMS float64          `json:"total_ms"`
		Buckets map[string]int64 `json:"buckets"`
	}
	raw, ok := vars["sectord.latency.greedy"]
	if !ok {
		t.Fatalf("no greedy latency histogram in %v", vars)
	}
	if err := json.Unmarshal(raw, &hist); err != nil {
		t.Fatalf("latency histogram not JSON: %v", err)
	}
	if hist.Count != 1 || len(hist.Buckets) != 1 {
		t.Errorf("greedy histogram count=%d buckets=%v, want one observation", hist.Count, hist.Buckets)
	}

	// A second Server in the same process must not panic (the metrics are
	// not published to the global expvar registry).
	NewServer(Config{})
}

func TestServeGracefulShutdownDrains(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	registerBlockingSolver("test-drain", started, release)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv := NewServer(Config{DrainTimeout: 10 * time.Second})
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ctx, ln) }()
	url := fmt.Sprintf("http://%s", ln.Addr())

	first := make(chan int, 1)
	go func() {
		resp, err := http.Post(url+"/solve", "application/json",
			bytes.NewReader(solveBody(t, "test-drain", sectorsInstance(), nil)))
		if err != nil {
			first <- -1
			return
		}
		resp.Body.Close()
		first <- resp.StatusCode
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("request never reached the solver")
	}

	cancel() // the SIGTERM path: signal.NotifyContext cancels this ctx
	time.Sleep(50 * time.Millisecond)
	close(release)

	if code := <-first; code != http.StatusOK {
		t.Errorf("in-flight request finished with %d, want 200 (graceful drain)", code)
	}
	select {
	case err := <-serveErr:
		if err != nil {
			t.Errorf("Serve returned %v, want nil on graceful shutdown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after shutdown")
	}
}

func TestSolveZeroWidthRayOverHTTP(t *testing.T) {
	in := &model.Instance{
		Variant: model.Sectors,
		Customers: []model.Customer{
			{Theta: 1.0, R: 2, Demand: 1},
			{Theta: 2.0, R: 2, Demand: 1},
		},
		Antennas: []model.Antenna{{Rho: 0, Range: 5, Capacity: 2}},
	}
	in.Normalize()
	ts := httptest.NewServer(NewServer(Config{}).Handler())
	defer ts.Close()
	resp, body := postSolve(t, ts.Client(), ts.URL, solveBody(t, "greedy", in, nil))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ray instance: status %d, body %s", resp.StatusCode, body)
	}
	var sr model.SolveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Profit != 1 {
		t.Errorf("ray profit = %d, want 1 (one aligned customer)", sr.Profit)
	}
}

// syncBuffer lets a test poll the daemon's log output while a daemon
// goroutine is still writing it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestDecodeErrorsMatchEncodingJSON pins the 400 bodies of undecodable
// requests on every route that decodes an instance envelope: each is
// "decode request: " plus the error a json.Decoder with
// DisallowUnknownFields gives for the same body.
func TestDecodeErrorsMatchEncodingJSON(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{}).Handler())
	defer ts.Close()
	bodies := []string{
		"{not json",
		`{"solver":"greedy","format_version":1,"bogus":1}`,
		`{"solver":"greedy","seed":"7","format_version":1}`,
		`{"solver":"greedy","format_version":1,"instance":{"customers":[{"id":0,"theta":1e400,"r":1,"demand":1}],"antennas":[]}}`,
		`{"solver":"greedy","format_version":1,"instances":[{"customers":[],"antennas":[],"Extra":1}]}`,
		"\xef\xbb\xbf{}",
		"",
	}
	for _, route := range []struct {
		path   string
		newReq func() any
	}{
		{"/solve", func() any { return new(model.SolveRequest) }},
		{"/solve/batch", func() any { return new(model.BatchRequest) }},
		{"/session", func() any { return new(model.SolveRequest) }},
	} {
		for _, body := range bodies {
			dec := json.NewDecoder(strings.NewReader(body))
			dec.DisallowUnknownFields()
			refErr := dec.Decode(route.newReq())
			if refErr == nil {
				continue
			}
			resp, err := ts.Client().Post(ts.URL+route.path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			var er errorResponse
			if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(raw, &er) != nil || er.Error != "decode request: "+refErr.Error() {
				t.Errorf("POST %s %q: status %d body %s, want 400 %q", route.path, body, resp.StatusCode, raw, "decode request: "+refErr.Error())
			}
		}
	}
}

// routeCase is one row of the daemon's route × failure matrix: a request,
// the exact response it must get, and the /debug/vars counter deltas it
// must cause (counters absent from vars must not move).
type routeCase struct {
	name    string
	method  string // empty means POST
	path    string // may carry a query; "{id}" is replaced by a fresh session's ID
	body    string
	session string // solver for the session "{id}" names; empty means greedy
	shed    bool   // saturate the inflight semaphore for this request

	status  int
	errMsg  string // exact JSON error body {"error": errMsg}
	rawBody string // exact non-JSON body (the mux's own 405)
	itemErr string // /solve/batch: exact error of the single item
	allow   string // exact Allow header ("" = absent)
	retry   string // exact Retry-After header ("" = absent)
	cache   string // exact X-Sectord-Cache header ("" = absent)
	vars    map[string]int64
}

// matrixVars are the counters every routeCase pins.
var matrixVars = []string{"requests", "failures", "shed", "panics", "cancellations", "invalid"}

// errJSON renders an error body exactly as writeJSON does.
func errJSON(msg string) string {
	b, _ := json.MarshalIndent(errorResponse{Error: msg}, "", "  ")
	return string(b) + "\n"
}

// matrixCounters reads the pinned counters from /debug/vars.
func matrixCounters(t *testing.T, ts *httptest.Server) map[string]int64 {
	t.Helper()
	out := map[string]int64{}
	for _, name := range matrixVars {
		out[name] = varsInt(t, ts, "sectord."+name)
	}
	return out
}

// registerMatrixSolvers installs the fault solvers the matrix rows name:
// test-rt-{error,panic,hang} fail every solve, and the -after variants
// fail only once a delta has shrunk the instance below matrixN customers,
// so a session can be created with them and fail on its first delta.
func registerMatrixSolvers(t *testing.T) {
	fail := func(kind string) core.Solver {
		return func(ctx context.Context, in *model.Instance, opt core.Options) (model.Solution, error) {
			switch kind {
			case "error":
				return model.Solution{}, errors.New("injected solver error")
			case "panic":
				panic("injected matrix panic")
			default:
				<-ctx.Done()
				return model.Solution{}, ctx.Err()
			}
		}
	}
	greedy, err := core.Get("greedy")
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"error", "panic", "hang"} {
		always, after := "test-rt-"+kind, "test-rt-"+kind+"-after"
		core.Register(always, fail(kind))
		f := fail(kind)
		core.Register(after, func(ctx context.Context, in *model.Instance, opt core.Options) (model.Solution, error) {
			if in.N() < matrixN {
				return f(ctx, in, opt)
			}
			return greedy(ctx, in, opt)
		})
		t.Cleanup(func() { core.Unregister(always); core.Unregister(after) })
	}
}

// matrixN is the customer count of the matrix's session instance.
const matrixN = 20

func matrixInstance() *model.Instance {
	return gen.MustGenerate(gen.Config{Family: gen.Uniform, Seed: 2, N: matrixN, M: 2, Tightness: 2})
}

// unknownSolverMsg is the registry's error for an unregistered name; it
// lists every registered solver, so it is read at run time.
func unknownSolverMsg(t *testing.T) string {
	t.Helper()
	_, err := core.Get("no-such-solver")
	if err == nil {
		t.Fatal("no-such-solver is registered")
	}
	return err.Error()
}

// runRouteMatrix drives every row against a fresh default Server and
// checks status, exact body, headers and counter deltas.
func runRouteMatrix(t *testing.T, cases []routeCase) {
	t.Helper()
	for _, tc := range cases {
		s := NewServer(Config{})
		ts := httptest.NewServer(s.Handler())
		path := tc.path
		if strings.Contains(path, "{id}") {
			solver := tc.session
			if solver == "" {
				solver = "greedy"
			}
			resp, body := doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/session", sessionCreateBody(t, solver, matrixInstance(), 1))
			var sr sessionResponse
			if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &sr) != nil {
				t.Fatalf("%s: session setup: status %d, body %s", tc.name, resp.StatusCode, body)
			}
			path = strings.ReplaceAll(path, "{id}", sr.SessionID)
		}
		before := matrixCounters(t, ts)
		if tc.shed {
			for i := 0; i < cap(s.sem); i++ {
				s.sem <- struct{}{}
			}
		}
		method := tc.method
		if method == "" {
			method = http.MethodPost
		}
		var body []byte
		if tc.body != "" {
			body = []byte(tc.body)
		}
		resp, raw := doJSON(t, ts.Client(), method, ts.URL+path, body)
		if tc.shed {
			for i := 0; i < cap(s.sem); i++ {
				<-s.sem
			}
		}
		after := matrixCounters(t, ts)
		ts.Close()

		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (body %s)", tc.name, resp.StatusCode, tc.status, raw)
		}
		switch {
		case tc.errMsg != "":
			if got, want := string(raw), errJSON(tc.errMsg); got != want {
				t.Errorf("%s: body\n got  %q\n want %q", tc.name, got, want)
			}
		case tc.rawBody != "":
			if string(raw) != tc.rawBody {
				t.Errorf("%s: body %q, want %q", tc.name, raw, tc.rawBody)
			}
		case tc.itemErr != "":
			var br batchResponse
			if err := json.Unmarshal(raw, &br); err != nil || len(br.Items) != 1 || br.Items[0].Error != tc.itemErr {
				t.Errorf("%s: batch body %s, want one item with error %q", tc.name, raw, tc.itemErr)
			}
		}
		for _, h := range []struct{ name, want string }{
			{"Allow", tc.allow}, {"Retry-After", tc.retry}, {cacheHeader, tc.cache},
		} {
			if got := resp.Header.Get(h.name); got != h.want {
				t.Errorf("%s: header %s = %q, want %q", tc.name, h.name, got, h.want)
			}
		}
		for _, name := range matrixVars {
			if got, want := after[name]-before[name], tc.vars[name]; got != want {
				t.Errorf("%s: sectord.%s moved by %d, want %d", tc.name, name, got, want)
			}
		}
	}
}
