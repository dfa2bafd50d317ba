// Package session implements long-lived delta-solve sessions for churning
// workloads: a Session wraps one evolving model.Instance plus a warm
// angular.Engine, accepts deltas (customer add/remove/demand-change,
// antenna capacity-change — model.Delta), and re-solves incrementally from
// the warm state instead of from scratch.
//
// Two layers of work survive a delta:
//
//   - Sweep state. angular.Engine.Rebase keeps every per-antenna sweep the
//     delta provably cannot touch — the radial pre-filter from
//     internal/cols decides which, because sweep membership is a pure
//     radial predicate. On localized churn most sweeps survive.
//   - Greedy steps. For the default "greedy" solver (outside the
//     DisjointAngles variant) the session records the per-antenna step
//     trace of the previous solve and replays every prefix step whose
//     inputs are provably unchanged: same antenna in the same position of
//     the capacity order, sweep kept, capacity unchanged, and no customer
//     whose availability may differ ("dirty") radially eligible for the
//     antenna. Re-solved steps mark the symmetric difference of their old
//     and new served sets dirty, so invalidation cascades exactly as far
//     as the churn reaches and no further.
//
// Determinism contract: every registered solver is a deterministic function
// of (instance, Options), and the warm state a session maintains is
// bit-identical to freshly built state (the rebase and cascade differential
// suites enforce both), so a session's answer after any delta is
// bit-identical to a from-scratch solve of the materialized instance. That
// is also why session solves must bypass the fingerprint solve cache:
// fingerprints describe one-shot (instance, options, solver) triples, and a
// session's identity is its delta history — the HTTP layer (cmd/sectord)
// keeps the two strictly apart.
//
// A Session is not safe for concurrent use; callers (the sectord session
// store) must serialize access per session.
package session

import (
	"context"
	"fmt"
	"sort"

	"sectorpack/internal/angular"
	"sectorpack/internal/cols"
	"sectorpack/internal/core"
	"sectorpack/internal/model"
)

// Options configures a session. Every field is consumed by the solve path:
// Solver selects the strategy re-run after each delta, Core is handed to
// that solver verbatim (and its Knapsack options drive the cascade's
// best-window searches).
type Options struct {
	// Solver is the registry name of the solver to run after every delta;
	// empty means "greedy", the solver with the full incremental fast
	// path. "localsearch" re-solves warm (sweeps survive, steps do not);
	// any other registry name is solved from the materialized instance —
	// correct, but with nothing warm to reuse.
	Solver string
	// Core is passed through to the solver. It is pinned for the life of
	// the session: the step-reuse proof needs the previous solve to have
	// used the same options as the next one.
	Core core.Options
}

// Stats counts a session's incremental-reuse behavior; sectord exports the
// store-wide sums as expvars.
type Stats struct {
	Solves        int64 // total solves, including the initial one
	Deltas        int64 // deltas applied
	SweepsKept    int64 // per-antenna sweeps that survived a Rebase
	SweepsDropped int64 // sweeps invalidated (or never built) at a Rebase
	StepsReused   int64 // greedy steps replayed from the previous trace
	StepsResolved int64 // greedy steps re-solved against the engine
}

// stepRec is one recorded greedy step: antenna processed (in capacity
// order), the window it chose, and the customers it served (instance
// indices at the time of the solve; empty means the step served nobody and
// left the orientation untouched).
type stepRec struct {
	antenna   int
	alpha     float64
	profit    int64
	customers []int32
}

// reuseInfo is what one delta changed, in the form the cascade consumes.
type reuseInfo struct {
	kept       []bool // sweep j survived the rebase
	capChanged []bool // antenna j's capacity was changed by the delta
	removed    []int  // sorted pre-delta ids of removed customers
}

// Session is a long-lived solve session. Create with New, advance with
// Apply.
type Session struct {
	opt Options
	cur *model.Instance
	eng *angular.Engine
	sol model.Solution

	trace   []stepRec // greedy step trace of the last committed solve
	traceOK bool      // trace matches (cur, opt); false after errors or non-cascade solves

	stats Stats
}

// New starts a session on a copy of the instance (the caller's value is
// never touched), prewarms the engine, and solves once. The returned
// session holds that initial solution (Solution()).
func New(ctx context.Context, in *model.Instance, opt Options) (*Session, error) {
	if in == nil {
		return nil, fmt.Errorf("session: nil instance")
	}
	if opt.Solver == "" {
		opt.Solver = "greedy"
	}
	if _, err := core.Get(opt.Solver); err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	cur := in.Clone().Normalize()
	if err := cur.Validate(); err != nil {
		return nil, fmt.Errorf("session: invalid instance: %w", err)
	}
	s := &Session{opt: opt, cur: cur, eng: angular.NewEngine(cur)}
	if err := s.eng.Prewarm(ctx); err != nil {
		return nil, err
	}
	sol, err := s.solve(ctx, nil, nil)
	if err != nil {
		return nil, err
	}
	s.sol = sol
	return s, nil
}

// Apply applies the delta and re-solves incrementally, returning the new
// solution. An invalid delta leaves the session untouched. A failed solve
// (cancellation, solver error) leaves the session on the new instance with
// its warm sweeps, but drops the step trace — the next Apply re-solves
// every step rather than trusting stale state.
func (s *Session) Apply(ctx context.Context, d model.Delta) (model.Solution, error) {
	next, err := model.ApplyDelta(s.cur, d)
	if err != nil {
		return model.Solution{}, err
	}
	kept := s.eng.Rebase(next, d)
	s.cur = next
	s.stats.Deltas++
	for _, k := range kept {
		if k {
			s.stats.SweepsKept++
		} else {
			s.stats.SweepsDropped++
		}
	}
	var ru *reuseInfo
	var prev []stepRec
	if s.traceOK {
		ru = &reuseInfo{
			kept:       kept,
			capChanged: make([]bool, next.M()),
			removed:    append([]int(nil), d.Remove...),
		}
		for _, ch := range d.SetCapacity {
			ru.capChanged[ch.Antenna] = true
		}
		sort.Ints(ru.removed)
		prev = s.trace
	}
	s.traceOK = false
	sol, err := s.solve(ctx, prev, ru)
	if err != nil {
		return model.Solution{}, err
	}
	s.sol = sol
	return sol, nil
}

// Solution returns the last committed solution.
func (s *Session) Solution() model.Solution { return s.sol }

// Instance returns the current materialized instance. It is the session's
// working copy — callers must treat it as read-only (clone before
// mutating).
func (s *Session) Instance() *model.Instance { return s.cur }

// Stats returns a snapshot of the session's reuse counters.
func (s *Session) Stats() Stats { return s.stats }

// solve dispatches one re-solve. prev/ru feed the greedy cascade and are
// nil for fresh solves and non-cascade solvers.
func (s *Session) solve(ctx context.Context, prev []stepRec, ru *reuseInfo) (model.Solution, error) {
	s.stats.Solves++
	switch {
	case s.opt.Solver == "greedy" && s.cur.Variant != model.DisjointAngles:
		// The full incremental path. Safe-wrapped like every registry
		// solve, so a panic comes back as a typed error instead of killing
		// the daemon's request goroutine.
		run := core.Safe("greedy", func(ctx context.Context, in *model.Instance, _ core.Options) (model.Solution, error) {
			return s.cascade(ctx, prev, ru)
		})
		return run(ctx, s.cur, s.opt.Core)
	case s.opt.Solver == "greedy":
		// DisjointAngles couples every step to all previously placed
		// sectors, so steps cannot be replayed independently; the warm
		// sweeps still carry the solve.
		run := core.Safe("greedy", func(ctx context.Context, in *model.Instance, opt core.Options) (model.Solution, error) {
			return core.SolveGreedyWarm(ctx, in, opt, s.eng)
		})
		return run(ctx, s.cur, s.opt.Core)
	case s.opt.Solver == "localsearch":
		run := core.Safe("localsearch", func(ctx context.Context, in *model.Instance, opt core.Options) (model.Solution, error) {
			return core.SolveLocalSearchWarm(ctx, in, opt, s.eng)
		})
		return run(ctx, s.cur, s.opt.Core)
	default:
		fn, err := core.Get(s.opt.Solver)
		if err != nil {
			return model.Solution{}, err
		}
		return fn(ctx, s.cur, s.opt.Core)
	}
}

// cascade is the incremental greedy: the same successive best-window loop
// as core.SolveGreedy (same capacity order, same windows, same folds — the
// differential suite pins bit-identity), except that steps whose inputs
// provably match the previous solve replay from the trace instead of
// re-running their candidate evaluation.
func (s *Session) cascade(ctx context.Context, prev []stepRec, ru *reuseInfo) (model.Solution, error) {
	in := s.cur
	n, m := in.N(), in.M()
	as := model.NewAssignment(n, m)
	sol := model.Solution{Algorithm: "greedy", Assignment: as}

	order := make([]int, m)
	for j := range order {
		order[j] = j
	}
	sort.SliceStable(order, func(a, b int) bool {
		return in.Antennas[order[a]].Capacity > in.Antennas[order[b]].Capacity
	})

	active := make([]bool, n)
	for i := range active {
		active[i] = true
	}
	trace := make([]stepRec, 0, m)
	var dirty dirtySet
	// aligned: the prefix of the new capacity order processed so far
	// matches the previous trace antenna-for-antenna. Once it breaks, no
	// later step may replay (its old active-state context is gone).
	aligned := ru != nil && prev != nil

	for p, j := range order {
		if err := ctx.Err(); err != nil {
			return model.Solution{}, err
		}
		if aligned && (p >= len(prev) || prev[p].antenna != j) {
			aligned = false
		}
		if aligned && ru.kept[j] && !ru.capChanged[j] &&
			!dirty.anyEligible(in, in.Antennas[j]) {
			if rec, ok := replay(prev[p], ru.removed, n, active); ok {
				if len(rec.customers) > 0 {
					as.Orientation[j] = rec.alpha
					for _, i := range rec.customers {
						as.Owner[i] = j
						active[i] = false
					}
					sol.Profit += rec.profit
				}
				trace = append(trace, rec)
				s.stats.StepsReused++
				continue
			}
		}
		win, err := s.eng.BestWindow(ctx, j, active, s.opt.Core.Knapsack)
		if err != nil {
			return model.Solution{}, err
		}
		rec := stepRec{antenna: j, alpha: win.Alpha}
		if len(win.Customers) > 0 {
			rec.profit = win.Profit
			rec.customers = make([]int32, len(win.Customers))
			as.Orientation[j] = win.Alpha
			for t, i := range win.Customers {
				rec.customers[t] = int32(i)
				as.Owner[i] = j
				active[i] = false
			}
			sol.Profit += win.Profit
		}
		if aligned {
			// The old step served a (possibly different) set; customers in
			// exactly one of the two sets have diverging availability from
			// here on.
			dirty.addSymDiff(remapSurvivors(prev[p].customers, ru.removed), rec.customers)
		}
		trace = append(trace, rec)
		s.stats.StepsResolved++
	}
	if !s.opt.Core.SkipBound {
		var err error
		if sol.UpperBound, err = core.UpperBoundContext(ctx, s.eng); err != nil {
			return model.Solution{}, err
		}
	}
	s.trace = trace
	s.traceOK = true
	return sol, nil
}

// replay remaps one recorded step onto the post-delta customer numbering.
// The reuse conditions guarantee none of its customers were removed or
// re-priced and all are still active; ok == false reports a violation (a
// bug elsewhere would have to cause it), in which case the caller re-solves
// the step — degrading to correctness instead of corrupting the
// assignment.
func replay(old stepRec, removed []int, n int, active []bool) (stepRec, bool) {
	rec := stepRec{antenna: old.antenna, alpha: old.alpha, profit: old.profit}
	if len(old.customers) == 0 {
		return rec, true
	}
	rec.customers = make([]int32, len(old.customers))
	for t, c := range old.customers {
		k := sort.SearchInts(removed, int(c))
		if k < len(removed) && removed[k] == int(c) {
			return stepRec{}, false // served customer was removed: not reusable
		}
		nc := int(c) - k
		if nc < 0 || nc >= n || !active[nc] {
			return stepRec{}, false
		}
		rec.customers[t] = int32(nc)
	}
	return rec, true
}

// remapSurvivors maps pre-delta customer ids onto the post-delta numbering,
// dropping removed ones (a removed customer exists for no downstream step,
// so it cannot carry dirtiness).
func remapSurvivors(ids []int32, removed []int) []int32 {
	if len(ids) == 0 {
		return nil
	}
	out := make([]int32, 0, len(ids))
	for _, c := range ids {
		k := sort.SearchInts(removed, int(c))
		if k < len(removed) && removed[k] == int(c) {
			continue
		}
		out = append(out, c-int32(k))
	}
	return out
}

// dirtySet tracks customers whose availability may differ from the previous
// solve. Membership is deduplicated so repeated symmetric differences stay
// linear.
type dirtySet struct {
	ids []int32
	in  map[int32]bool
}

func (d *dirtySet) add(i int32) {
	if d.in == nil {
		d.in = make(map[int32]bool)
	}
	if !d.in[i] {
		d.in[i] = true
		d.ids = append(d.ids, i)
	}
}

// addSymDiff adds every customer in exactly one of the two sets.
func (d *dirtySet) addSymDiff(old, new []int32) {
	inOld := make(map[int32]bool, len(old))
	for _, i := range old {
		inOld[i] = true
	}
	for _, i := range new {
		if inOld[i] {
			delete(inOld, i)
		} else {
			d.add(i)
		}
	}
	for i := range inOld {
		d.add(i)
	}
}

// anyEligible reports whether any dirty customer is radially eligible for
// the antenna — the cols pre-filter predicate, the same membership test
// sweeps are built from. If none is, the antenna's view of the active set
// is unchanged and its recorded step may replay.
func (d *dirtySet) anyEligible(in *model.Instance, a model.Antenna) bool {
	for _, i := range d.ids {
		if cols.InRadialRange(a, in.Customers[i].R) {
			return true
		}
	}
	return false
}
