package angular

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"sectorpack/internal/cols"
	"sectorpack/internal/knapsack"
	"sectorpack/internal/model"
	"sectorpack/internal/sweep"
)

// maxWorkersVar caps the worker count of every parallel path in this
// package (candidate-window evaluation and Prewarm's per-antenna sweep
// builds); 0 means GOMAXPROCS. Results are bit-identical at
// any setting — the knob exists so the scalar-vs-parallel differential
// tests and sectorbench can pin each path explicitly.
var maxWorkersVar atomic.Int32

// SetMaxWorkers caps the package's parallel paths at n workers (n <= 1
// forces the scalar path, 0 restores the GOMAXPROCS default) and returns
// the previous setting. Safe for concurrent use, but intended for test and
// benchmark setup, not per-request tuning.
func SetMaxWorkers(n int) int {
	if n < 0 {
		n = 0
	}
	return int(maxWorkersVar.Swap(int32(n)))
}

// Workers reports the effective worker count the package's parallel paths
// would use right now.
func Workers() int {
	if n := int(maxWorkersVar.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Engine is the reusable best-window evaluator behind the greedy, local
// search, and constrained solvers. It caches one Sweep (and one candidate
// list) per antenna for the lifetime of a solve — the sweep depends only on
// instance geometry, so successive greedy steps and local-search
// reorientations share it instead of re-filtering and re-sorting all
// customers — and solves only the candidate windows whose knapsack can
// still win:
//
//  1. For every candidate window the Dantzig bound ⌊LP⌋ is computed with
//     integer arithmetic. BestWindow slides one Fenwick tree over density
//     rank along the sweep (dantzigTree), so each window's bound costs
//     O(log k); BestWindowAt walks the sweep's density order per window.
//     Profits are integers, so the bound never undershoots the window's
//     0/1 optimum.
//  2. The candidate with the highest bound (the first one on ties) is
//     solved first; it becomes the incumbent (profit, candidate index).
//  3. The rest are visited in candidate order. A candidate is skipped when
//     its bound is below the incumbent's profit, or equal to it with a
//     later index: the fold keeps the first index on ties, so its knapsack
//     provably cannot win.
//  4. The solved candidates fold in candidate order with the same
//     strictly-greater comparison as the unpruned path.
//
// Pruning is invisible in the results (see beaten): Alpha, Profit,
// Customers, and Exact all match the unpruned evaluation bit for bit on
// any input whose inner-solver exactness is uniform across windows, and
// unconditionally for the first three. A metamorphic test sweeps generator
// families × solvers × worker counts to enforce this.
//
// An Engine is not safe for concurrent use; its methods parallelize
// internally across GOMAXPROCS workers.
type Engine struct {
	in     *model.Instance
	view   *cols.View // columnar core, built once and shared by every sweep
	sweeps []*Sweep
	cands  [][]float64

	// Per-call scratch, reused across calls to keep the steady state
	// allocation-free.
	wins   []windowCand
	outs   []outcome
	posBuf []int32 // BestWindowAt's member positions of one candidate
	tree   dantzigTree

	// best is the running evaluation's incumbent: the index of the solved
	// candidate that currently leads the fold, −1 before the first. Its
	// profit is read from outs, which is written before the index is
	// published, so one atomic word carries the (profit, index) pair.
	best atomic.Int64

	solves atomic.Int64 // knapsacks solved over the engine's lifetime
}

// windowCand is one candidate window awaiting evaluation: either a circular
// position range of the sweep (count >= 0, the streaming enumeration) or
// the window at an arbitrary angle alpha (count < 0, BestWindowAt).
type windowCand struct {
	alpha float64
	bound int64
	start int32
	count int32
}

type outcome struct {
	win    Window
	err    error
	solved bool // evaluated (possibly trivially); false = pruned
	empty  bool // no active members: participates only in unconstrained folds
}

// NewEngine prepares an engine for the instance. Sweeps are built lazily,
// one per antenna, on first use.
func NewEngine(in *model.Instance) *Engine {
	return &Engine{
		in:     in,
		sweeps: make([]*Sweep, len(in.Antennas)),
		cands:  make([][]float64, len(in.Antennas)),
	}
}

// Instance returns the instance the engine was built for.
func (e *Engine) Instance() *model.Instance { return e.in }

// View returns the engine's columnar view of the instance, building it on
// first use. Every sweep built from scratch gathers from these shared
// read-only columns, so the instance is sorted at most once per engine and
// per Rebase — and only if some sweep is built from scratch at all.
func (e *Engine) View() *cols.View {
	if e.view == nil {
		e.view = cols.New(e.in)
	}
	return e.view
}

// Sweep returns the antenna's cached sweep, building it on first use.
func (e *Engine) Sweep(antenna int) *Sweep {
	if e.sweeps[antenna] == nil {
		e.sweeps[antenna] = newSweepFromView(e.View(), e.in.Antennas[antenna], new(buildScratch))
	}
	return e.sweeps[antenna]
}

// Candidates returns the antenna's candidate start angles (sorted customer
// angles of in-range customers, deduplicated within geom.Eps), cached per
// antenna. Callers must not mutate the returned slice.
func (e *Engine) Candidates(antenna int) []float64 {
	if e.cands[antenna] == nil {
		e.cands[antenna] = candidatesFromSweep(e.Sweep(antenna))
	}
	return e.cands[antenna]
}

// AppendMembers appends to dst the active customers (active == nil: all)
// that the antenna covers when oriented at alpha, in ascending customer
// index, and returns the extended slice. alpha may be any angle, not only a
// candidate; membership follows model.Antenna.Covers' tolerance. Cost is
// O(log n + k log k) for a window of k members, once the sweep is built.
func (e *Engine) AppendMembers(dst []int, antenna int, alpha float64, active []bool) []int {
	return e.Sweep(antenna).appendMembers(dst, alpha, active)
}

// candidatesFromSweep derives an antenna's deduplicated candidate angles
// from its sweep's already-sorted thetas.
func candidatesFromSweep(s *Sweep) []float64 {
	out := dedupAngles(append(make([]float64, 0, len(s.thetas)), s.thetas...))
	if out == nil {
		out = []float64{} // non-nil: cache hit marker
	}
	return out
}

// prewarmParallelMin gates Prewarm's fan-out: below this much total work
// (customers × antennas) goroutine spawn costs more than it saves and the
// serial loop is used. The threshold never changes results, only cost.
const prewarmParallelMin = 1 << 14

// Prewarm builds every antenna's sweep and candidate list up front,
// fanning the per-antenna builds across Workers() goroutines (sweep.Each)
// on large instances. The merge is deterministic by construction: antenna
// j's sweep lands in slot j and its content depends only on the shared
// view and the antenna, never on scheduling, so a prewarmed engine is
// bit-identical to one that built sweeps lazily — and to the scalar path.
// The view is built only if some sweep is missing, so prewarming a rebased
// engine whose sweeps all carried over sorts nothing.
//
// Cancellation: ctx is consulted before every antenna is claimed; on
// cancellation the already-built sweeps are kept (they are valid
// caches) and ctx.Err() is returned.
func (e *Engine) Prewarm(ctx context.Context) error {
	m := len(e.sweeps)
	if m == 0 {
		return ctx.Err()
	}
	var view *cols.View
	if slices.Contains(e.sweeps, nil) {
		view = e.View() // built serially, before the fan-out
	}
	workers := Workers()
	if len(e.in.Customers)*m < prewarmParallelMin {
		workers = 1
	}
	return sweep.Each(ctx, m, workers, func() prewarmer { return prewarmer{e, view, new(buildScratch)} }, prewarmer.build)
}

// prewarmer is a Prewarm worker, with the scratch its sweep builds reuse.
type prewarmer struct {
	e  *Engine
	v  *cols.View
	sc *buildScratch
}

// build fills antenna j's sweep and candidate slots if still empty.
// Distinct antennas touch distinct slots, so Prewarm's workers never race.
func (p prewarmer) build(j int) error {
	e := p.e
	if e.sweeps[j] == nil {
		e.sweeps[j] = newSweepFromView(p.v, e.in.Antennas[j], p.sc)
	}
	if e.cands[j] == nil {
		e.cands[j] = candidatesFromSweep(e.sweeps[j])
	}
	return nil
}

// BestWindow finds the most profitable placement of a single antenna over
// the active customers: the cached sweep streams every candidate window,
// the Dantzig bound — read from one tree slid along the sweep — prunes
// hopeless ones, and a knapsack selects within each survivor. Results are
// identical to evaluating every candidate.
//
// With an exact inner solver the result is the true single-antenna optimum
// (by the candidate-orientation lemma); with the FPTAS it is a (1−ε)
// approximation of it.
//
// Cancellation: the evaluation loop checks ctx between candidate windows
// and returns ctx.Err() promptly, discarding partial work. An uncancelled
// run is bit-identical to the pre-context behavior.
func (e *Engine) BestWindow(ctx context.Context, antenna int, active []bool, opt knapsack.Options) (Window, error) {
	s := e.Sweep(antenna)
	capacity := e.in.Antennas[antenna].Capacity
	e.wins = e.wins[:0]
	e.tree.reset(s)
	s.forEachRange(func(start, count int, alpha float64) bool {
		e.tree.slide(start, start+count, active)
		e.wins = append(e.wins, windowCand{
			alpha: alpha,
			bound: e.tree.bound(capacity),
			start: int32(start),
			count: int32(count),
		})
		return true
	})
	if len(e.wins) == 0 {
		return Window{Exact: true}, nil
	}
	return e.evaluate(ctx, s, capacity, active, opt, false)
}

// BestWindowAt evaluates an explicit set of candidate orientations — which
// need not be customer angles (placed-sector ends, grid points) — with the
// same pruned, parallel machinery as BestWindow. Window membership follows
// Covers' tolerance semantics and knapsack items are ordered by ascending
// customer index (AppendMembers), the order of a scan over all customers.
// Candidates whose window has no active member are skipped entirely (they
// never become the incumbent), mirroring the historical constrained-search
// behavior; if every candidate is empty the zero Window is returned.
func (e *Engine) BestWindowAt(ctx context.Context, antenna int, alphas []float64, active []bool, opt knapsack.Options) (Window, error) {
	s := e.Sweep(antenna)
	capacity := e.in.Antennas[antenna].Capacity
	e.wins = e.wins[:0]
	for _, alpha := range alphas {
		e.posBuf = e.posBuf[:0]
		s.eachCovered(alpha, func(p int) { e.posBuf = append(e.posBuf, int32(p)) })
		e.wins = append(e.wins, windowCand{
			alpha: alpha,
			bound: s.dantzigSet(e.posBuf, active, capacity),
			count: -1,
		})
	}
	if len(e.wins) == 0 {
		return Window{}, nil
	}
	return e.evaluate(ctx, s, capacity, active, opt, true)
}

// parallelThreshold is the candidate count below which the fan-out is not
// worth its synchronization cost.
const parallelThreshold = 16

// evaluate runs the prune-and-solve loop over e.wins and folds the
// outcomes. skipEmpty selects the constrained fold (empty windows are
// ignored) versus the unconstrained one (an empty window still proposes
// its orientation at profit 0, preserving BestWindow's historical
// all-empty behavior).
//
// The top-bound candidate is solved inline first, so the incumbent is as
// high as it can be made with one knapsack before any other candidate is
// tested against it. The rest fan out in candidate order over Workers()
// goroutines on sweep.Each (inline below parallelThreshold), each worker
// with its own evalScratch. ctx is checked before the inline solve and
// before every candidate is claimed; on cancellation the partial fold is
// abandoned and ctx.Err() is returned.
func (e *Engine) evaluate(ctx context.Context, s *Sweep, capacity int64, active []bool, opt knapsack.Options, skipEmpty bool) (Window, error) {
	nc := len(e.wins)
	if cap(e.outs) < nc {
		e.outs = make([]outcome, nc)
	}
	e.outs = e.outs[:nc]
	clear(e.outs)
	top := 0
	for k := 1; k < nc; k++ {
		if e.wins[k].bound > e.wins[top].bound {
			top = k
		}
	}
	e.best.Store(-1)
	if err := ctx.Err(); err != nil {
		return Window{}, err
	}

	workers := Workers()
	if nc < parallelThreshold {
		workers = 1
	}
	var used *evalScratch // every worker's scratch, chained for the return to evalPool
	newWorker := func() evalWorker {
		sc := evalPool.Get().(*evalScratch)
		sc.next, used = used, sc
		return evalWorker{e: e, s: s, capacity: capacity, active: active, opt: opt, skipEmpty: skipEmpty, top: top, sc: sc}
	}
	newWorker().solve(top)
	err := sweep.Each(ctx, nc, workers, newWorker, evalWorker.run)
	for used != nil {
		sc := used
		used, sc.next = sc.next, nil
		evalPool.Put(sc)
	}
	if err != nil {
		return Window{}, err
	}

	// Fold in original candidate order, exactly as the unpruned path did.
	acc := Window{Profit: -1, Exact: true}
	for k := range e.outs {
		o := &e.outs[k]
		if !o.solved {
			continue
		}
		if o.err != nil {
			return Window{}, o.err
		}
		if o.empty && skipEmpty {
			continue
		}
		acc = better(acc, o.win)
	}
	return clampEmpty(acc), nil
}

// evalScratch is a worker's reusable id/item workspace.
type evalScratch struct {
	ids   []int
	items []knapsack.Item
	next  *evalScratch // evaluate's chain of the scratch its workers hold
}

// evalWorker is one evaluate worker: the call's inputs plus the worker's
// own scratch.
type evalWorker struct {
	e         *Engine
	s         *Sweep
	capacity  int64
	active    []bool
	opt       knapsack.Options
	skipEmpty bool
	top       int // the candidate evaluate solved before the fan-out
	sc        *evalScratch
}

// run evaluates the k-th candidate unless it was solved first or beaten.
func (ew evalWorker) run(k int) error {
	if k != ew.top && !ew.e.beaten(k) {
		ew.solve(k)
	}
	return nil
}

var evalPool = sync.Pool{New: func() any { return new(evalScratch) }}

// beaten reports whether candidate k provably cannot win the fold, given
// the incumbent (P, I): the solved candidate whose outcome currently leads
// it. Candidate k's optimum is at most its bound b (the inner solver's
// profit even more so), and the fold keeps the first index among the
// maximal profits. So k cannot win if b < P, or if b == P and k > I: in
// the tie, I reaches the same profit at a lower index. The incumbent only
// ever moves to a higher profit or to a lower index at equal profit, so a
// candidate beaten by a stale read stays beaten.
func (e *Engine) beaten(k int) bool {
	inc := e.best.Load()
	if inc < 0 {
		return false
	}
	b, p := e.wins[k].bound, e.outs[inc].win.Profit
	return b < p || (b == p && int64(k) > inc)
}

// raise makes solved candidate k the incumbent if it leads the fold over
// the current one: a higher profit, or the same profit at a lower index.
// outs[k] is complete before k is published, so a reader that loads k
// also sees its profit.
func (e *Engine) raise(k int) {
	p := e.outs[k].win.Profit
	for {
		inc := e.best.Load()
		if inc >= 0 {
			q := e.outs[inc].win.Profit
			if p < q || (p == q && int64(k) > inc) {
				return
			}
		}
		if e.best.CompareAndSwap(inc, int64(k)) {
			return
		}
	}
}

// solve evaluates candidate k into e.outs[k] and raises the shared
// incumbent. Member enumeration preserves the historical item orders:
// sweep order (rotated theta order) for range candidates, ascending
// customer index for explicit-angle candidates. An empty window raises the
// incumbent only in the unconstrained fold, the only one it takes part in.
func (ew evalWorker) solve(k int) {
	e, s, active, sc := ew.e, ew.s, ew.active, ew.sc
	c := e.wins[k]
	n := s.Len()
	ids := sc.ids[:0]
	if c.count >= 0 {
		for t := int(c.start); t < int(c.start)+int(c.count); t++ {
			i := int(s.ids[t%n])
			if active == nil || active[i] {
				ids = append(ids, i)
			}
		}
	} else {
		ids = s.appendMembers(ids, c.alpha, active)
	}
	sc.ids = ids
	if len(ids) == 0 {
		e.outs[k] = outcome{win: Window{Alpha: c.alpha, Exact: true}, solved: true, empty: true}
		if !ew.skipEmpty {
			e.raise(k)
		}
		return
	}
	items := sc.items[:0]
	for _, i := range ids {
		items = append(items, knapsack.Item{Weight: e.in.Customers[i].Demand, Profit: e.in.Customers[i].Profit})
	}
	sc.items = items
	e.solves.Add(1)
	res, exact, err := knapsack.Solve(items, ew.capacity, ew.opt)
	if err != nil {
		e.outs[k] = outcome{err: err, solved: true}
		return
	}
	w := Window{Alpha: c.alpha, Profit: res.Profit, Exact: exact}
	for t, take := range res.Take {
		if take {
			w.Customers = append(w.Customers, ids[t])
		}
	}
	e.outs[k] = outcome{win: w, solved: true}
	e.raise(k)
}

// dantzigSet computes the Dantzig bound of an explicit member-position set
// over its active members: the floor of the fractional (LP) optimum, from a
// walk of the sweep's density order in integer arithmetic (floorFrac), so
// no float rounding can pull it below the set's 0/1 optimum. The set need
// not be sorted — only membership matters. It marks the members and walks
// the density order, so cost is O(set + prefix of density walk).
func (s *Sweep) dantzigSet(set []int32, active []bool, capacity int64) int64 {
	if len(set) == 0 {
		return 0
	}
	s.marks.reset(len(s.ids))
	for _, p := range set {
		s.marks.add(p)
	}
	rem := capacity
	var bound int64
	for _, p32 := range s.density {
		p := int(p32)
		if !s.marks.has(p32) {
			continue
		}
		if active != nil && !active[s.ids[p]] {
			continue
		}
		w := s.weights[p]
		if w <= rem {
			bound += s.profits[p]
			rem -= w
			if rem == 0 {
				break
			}
		} else {
			bound += floorFrac(s.profits[p], rem, w)
			break
		}
	}
	return bound
}

// fractionalSet returns knapsack.FractionalBound of the positions marked
// in set, bit for bit: the same float operations in the same order. It
// walks the sweep's density order, which is byDensity's order except among
// positions equal in both density and profit. Those have equal weights
// too, so they are interchangeable (profit, weight) pairs and swapping them
// changes no partial sum.
func (s *Sweep) fractionalSet(set *stamps, capacity int64) float64 {
	var bound float64
	rem := capacity
	for _, p := range s.density {
		if !set.has(p) {
			continue
		}
		w, pr := s.weights[p], float64(s.profits[p])
		if w == 0 {
			bound += pr
			continue
		}
		if w <= rem {
			bound += pr
			rem -= w
		} else {
			bound += pr * float64(rem) / float64(w)
			break
		}
	}
	return bound
}

// WindowSet is a reusable set of one antenna's customers whose Dantzig
// (fractional-knapsack) value is read off the antenna's sweep instead of
// sorting the set: Reset binds it to an antenna, Clear empties it, Add
// puts a customer in and FractionalBound walks the sweep's density order
// over the members. Its value equals knapsack.FractionalBound of the
// members' items bit for bit. The zero value is ready for Reset.
type WindowSet struct {
	s   *Sweep
	pos []int32 // sweep position per customer index, −1 outside the sweep
	set stamps
}

// Reset binds w to the engine's antenna, building its sweep if need be,
// and empties it. Its scratch is sized to the instance once, so a reused
// WindowSet allocates nothing after its first Reset on an instance.
func (w *WindowSet) Reset(e *Engine, antenna int) {
	w.s = e.Sweep(antenna)
	n := len(e.in.Customers)
	w.pos = slices.Grow(w.pos[:0], n)[:n]
	for i := range w.pos {
		w.pos[i] = -1
	}
	for t, id := range w.s.ids {
		w.pos[id] = int32(t)
	}
	w.set.reset(n)
}

// Clear empties the set.
func (w *WindowSet) Clear() { w.set.reset(len(w.pos)) }

// Add puts customer i in the set. Only customers of the antenna's sweep
// can be members: a customer the antenna covers at some angle is radially
// in range, and so in the sweep (the radial semantics are one, pinned by
// TestEngineMatchesScan). Add panics on any other, because a covered
// customer missing from the sweep would silently lower the bound below
// the optimum it certifies.
func (w *WindowSet) Add(i int) {
	p := w.pos[i]
	if p < 0 {
		panic(fmt.Sprintf("angular: customer %d is not in the antenna's sweep", i))
	}
	w.set.add(p)
}

// FractionalBound returns knapsack.FractionalBound(items, capacity) for
// the members' items, bit for bit, in O(prefix of the density order).
func (w *WindowSet) FractionalBound(capacity int64) float64 {
	return w.s.fractionalSet(&w.set, capacity)
}

// stamps is an epoch-stamped set of sweep positions: reset empties it in
// O(1) by advancing the epoch, clearing the stamps only when it wraps.
type stamps struct {
	mark  []int32 // epoch per position; members carry the current one
	epoch int32
}

// reset empties the set and sizes it for positions below n.
func (st *stamps) reset(n int) {
	if cap(st.mark) < n {
		st.mark = make([]int32, n)
		st.epoch = 0
	}
	st.mark = st.mark[:n]
	st.epoch++
	if st.epoch == 0 { // wrapped: stale stamps may repeat, past len too
		clear(st.mark[:cap(st.mark)])
		st.epoch = 1
	}
}

func (st *stamps) add(p int32)      { st.mark[p] = st.epoch }
func (st *stamps) has(p int32) bool { return st.mark[p] == st.epoch }

// floorFrac returns ⌊p·rem/w⌋, the split item's share of the Dantzig
// bound. The whole items before it sum to an integer S, so the bound is
// S + ⌊p·rem/w⌋ = ⌊LP⌋; every knapsack profit is an integer at most LP,
// hence at most ⌊LP⌋. If the product would overflow it falls back to p,
// which is still a valid bound on the fraction since rem < w.
func floorFrac(p, rem, w int64) int64 {
	if p == 0 || rem == 0 {
		return 0
	}
	if p > math.MaxInt64/rem {
		return p
	}
	return p * rem / w
}
