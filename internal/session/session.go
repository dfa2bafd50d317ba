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
//   - Greedy steps. The default "greedy" solver runs core's greedy loop
//     (core.SolveGreedyHooked) with the session's cascade as its step
//     hook. The cascade records the per-antenna step trace of each solve
//     and replays every prefix step whose inputs are provably unchanged:
//     same antenna in the same position of the capacity order, sweep kept,
//     capacity unchanged, and no customer whose availability may differ
//     ("dirty") radially eligible for the antenna. Re-solved steps mark
//     the symmetric difference of their old and new served sets dirty, so
//     invalidation cascades exactly as far as the churn reaches and no
//     further. Under DisjointAngles every step is searched, since each
//     depends on the sectors placed before it.
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
// Durability: a server creates sessions with Create, advances them with
// Deliver and rebuilds them after a restart with Recover. Deliver alone
// decides what a delta did: it answers a repeated idempotency key from
// current state, journals every delta model.ApplyDelta accepted (even if
// the re-solve then fails), and verifies every answer. Apply is the bare
// state transition underneath. The journal is described in journal.go.
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
	"sectorpack/internal/faultfs"
	"sectorpack/internal/model"
)

// Options configures a session. Every field is consumed by the solve path:
// Solver selects the strategy re-run after each delta, Core is handed to
// that solver verbatim.
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

// Stats counts a session's incremental-reuse behavior. sectord answers it
// in every session reply (these JSON names are its wire form) and exports
// the store-wide sums as expvars.
type Stats struct {
	Solves        int64 `json:"solves"`         // total solves, including the initial one
	Deltas        int64 `json:"deltas"`         // deltas that advanced the instance
	SweepsKept    int64 `json:"sweeps_kept"`    // per-antenna sweeps that survived a Rebase
	SweepsDropped int64 `json:"sweeps_dropped"` // sweeps invalidated (or never built) at a Rebase
	StepsReused   int64 `json:"steps_reused"`   // greedy steps replayed from the previous trace
	StepsResolved int64 `json:"steps_resolved"` // greedy steps re-solved against the engine
}

// stepRec is one recorded greedy step: the antenna processed (in capacity
// order) and the window it chose, its customers numbered as at the time of
// the solve (no customers means the step served nobody and left the
// orientation untouched).
type stepRec struct {
	antenna int
	win     angular.Window
}

// reuseInfo is the previous solve's trace plus what one delta changed, in
// the form the cascade consumes.
type reuseInfo struct {
	prev       []stepRec
	kept       []bool // sweep j survived the rebase
	capChanged []bool // antenna j's capacity was changed by the delta
	removed    []int  // sorted pre-delta ids of removed customers
}

// Session is a long-lived solve session. Create with New, advance with
// Apply; a server uses Create, Deliver and Recover instead.
type Session struct {
	opt Options
	cur *model.Instance
	eng *angular.Engine
	sol model.Solution

	trace   []stepRec // greedy step trace of the last committed solve
	traceOK bool      // trace matches (cur, opt); false after errors or non-greedy solves

	journal   *Journal // nil: not journaled
	lastKey   string   // idempotency key of the last delta that advanced the instance
	committed bool     // sol is the verified answer for cur

	stats Stats
}

// New starts a session on a copy of the instance (the caller's value is
// never touched), prewarms the engine, and solves once, behind
// core.VerifySolution. The returned session holds that initial solution
// (Solution()).
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
	if err := s.commit(ctx, nil); err != nil {
		return nil, err
	}
	return s, nil
}

// Create is New plus, when path is not empty, a journal at path
// (CreateJournal), whose create record is durable before Create returns:
// a session is never acknowledged without one. A journal failure wraps
// ErrJournal.
func Create(ctx context.Context, in *model.Instance, opt Options, fsys faultfs.FS, path string, syncEvery int) (*Session, error) {
	s, err := New(ctx, in, opt)
	if err == nil && path != "" {
		s.journal, err = CreateJournal(fsys, path, s.opt, in, syncEvery)
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Recover rebuilds a session from the journal at path (readJournal, then
// replay) and reopens the journal for appends. The session keeps the last
// journaled idempotency key, so a retry that straddles the restart is
// answered, not applied twice. On error the journal is left on disk.
func Recover(ctx context.Context, fsys faultfs.FS, path string, syncEvery int) (*Session, error) {
	rec, err := readJournal(fsys, path)
	if err != nil {
		return nil, err
	}
	s, err := rec.replay(ctx)
	if err == nil {
		s.journal, err = openAppend(fsys, path, syncEvery)
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Deliver applies a delta durably and at most once per idempotency key.
// A non-empty key equal to that of the last delta that advanced the
// instance is a retry: d is not applied again, the answer comes from
// current state (re-solved first, counting no delta, if that solve never
// committed), and replayed is true. Otherwise, once model.ApplyDelta
// accepts d, the delta is journaled and its key recorded before the
// re-solve, so a failed solve leaves the session advanced and uncommitted,
// exactly as recovery will rebuild it. Every solution returned passed
// core.VerifySolution. A rejected delta changes nothing; a journal failure
// wraps ErrJournal, and the session must then stop serving.
func (s *Session) Deliver(ctx context.Context, d model.Delta, key string) (sol model.Solution, replayed bool, err error) {
	replayed = key != "" && key == s.lastKey
	if !replayed {
		var ru *reuseInfo
		if ru, err = s.advance(d); err != nil {
			return model.Solution{}, false, err
		}
		s.lastKey = key
		if err := s.journal.AppendDelta(d, key); err != nil {
			return model.Solution{}, false, err
		}
		err = s.commit(ctx, ru)
	} else if !s.committed {
		err = s.commit(ctx, nil)
	}
	if err != nil {
		return model.Solution{}, replayed, err
	}
	return s.sol, replayed, nil
}

// Sync flushes the journal's group-commit window.
func (s *Session) Sync() error { return s.journal.sync() }

// Close flushes and closes the journal, leaving the file for a later
// Recover; the owner of the journal directory deletes it. The session must
// not be used afterwards.
func (s *Session) Close() error { return s.journal.Close() }

// Apply applies the delta and re-solves incrementally, returning the new
// solution. An invalid delta leaves the session untouched. A failed solve
// (cancellation, solver error) leaves the session on the new instance with
// its warm sweeps, but drops the step trace — the next Apply re-solves
// every step rather than trusting stale state.
func (s *Session) Apply(ctx context.Context, d model.Delta) (model.Solution, error) {
	ru, err := s.advance(d)
	if err != nil {
		return model.Solution{}, err
	}
	sol, err := s.solve(ctx, ru)
	if err != nil {
		return model.Solution{}, err
	}
	s.sol = sol
	return sol, nil
}

// advance installs the instance d produces, rebases the engine onto it,
// and returns what the cascade may reuse from the previous trace (nil when
// that trace is not trustworthy). A rejected delta changes nothing; an
// accepted one leaves the session uncommitted and without a key.
func (s *Session) advance(d model.Delta) (*reuseInfo, error) {
	next, err := model.ApplyDelta(s.cur, d)
	if err != nil {
		return nil, err
	}
	kept := s.eng.Rebase(next, d)
	s.cur = next
	s.lastKey, s.committed = "", false
	s.stats.Deltas++
	for _, k := range kept {
		if k {
			s.stats.SweepsKept++
		} else {
			s.stats.SweepsDropped++
		}
	}
	var ru *reuseInfo
	if s.traceOK {
		ru = &reuseInfo{
			prev:       s.trace,
			kept:       kept,
			capChanged: make([]bool, next.M()),
			removed:    append([]int(nil), d.Remove...),
		}
		for _, ch := range d.SetCapacity {
			ru.capChanged[ch.Antenna] = true
		}
		sort.Ints(ru.removed)
	}
	s.traceOK = false
	return ru, nil
}

// commit re-solves the current instance and installs the answer only if
// it passes core.VerifySolution.
func (s *Session) commit(ctx context.Context, ru *reuseInfo) error {
	sol, err := s.solve(ctx, ru)
	if err == nil {
		err = core.VerifySolution(s.opt.Solver, s.cur, sol)
	}
	if err != nil {
		return err
	}
	s.sol, s.committed = sol, true
	return nil
}

// Solver returns the registry name of the session's solver.
func (s *Session) Solver() string { return s.opt.Solver }

// Solution returns the last committed solution.
func (s *Session) Solution() model.Solution { return s.sol }

// Instance returns the current materialized instance. It is the session's
// working copy — callers must treat it as read-only (clone before
// mutating).
func (s *Session) Instance() *model.Instance { return s.cur }

// Stats returns a snapshot of the session's reuse counters.
func (s *Session) Stats() Stats { return s.stats }

// solve dispatches one re-solve. ru feeds the greedy cascade and is nil
// for fresh solves and after a failed one.
func (s *Session) solve(ctx context.Context, ru *reuseInfo) (model.Solution, error) {
	s.stats.Solves++
	switch s.opt.Solver {
	case "greedy":
		// The incremental path: core's greedy loop with the cascade as its
		// step hook. It runs under core.SafeSolve like every registry
		// solve, so a panic comes back as a typed error instead of killing
		// the daemon's request goroutine.
		c := &cascade{s: s, ru: ru, trace: make([]stepRec, 0, s.cur.M()),
			// DisjointAngles couples every step to all previously placed
			// sectors, so no step can replay on its own.
			aligned: ru != nil && s.cur.Variant != model.DisjointAngles}
		sol, err := core.SafeSolve(ctx, s.cur, s.opt.Core, func(ctx context.Context, in *model.Instance, opt core.Options) (model.Solution, error) {
			return core.SolveGreedyHooked(ctx, in, opt, s.eng, c)
		}, "greedy")
		if err == nil {
			s.trace, s.traceOK = c.trace, true
		}
		return sol, err
	case "localsearch":
		// Warm sweeps survive; steps do not.
		return core.SafeSolve(ctx, s.cur, s.opt.Core, func(ctx context.Context, in *model.Instance, opt core.Options) (model.Solution, error) {
			return core.SolveLocalSearchWarm(ctx, in, opt, s.eng)
		}, "localsearch")
	default:
		fn, err := core.Get(s.opt.Solver)
		if err != nil {
			return model.Solution{}, err
		}
		return fn(ctx, s.cur, s.opt.Core)
	}
}

// cascade is the session's core.GreedyHook for one solve: core's greedy
// loop runs unchanged, and a step whose inputs provably match the previous
// solve replays its recorded window instead of re-running its candidate
// evaluation. A step replays when it is aligned (every earlier step of the
// capacity order processed the same antenna as in the previous trace), its
// sweep was kept, its capacity is unchanged, and no dirty customer is
// radially eligible for it. Every step's window is recorded as the next
// trace.
type cascade struct {
	s       *Session
	ru      *reuseInfo // nil: nothing to replay
	aligned bool       // the capacity order so far matches ru.prev antenna-for-antenna
	dirty   dirtySet
	trace   []stepRec
}

// Replay implements core.GreedyHook.
func (c *cascade) Replay(p, j int, active []bool) (angular.Window, bool) {
	if c.aligned && (p >= len(c.ru.prev) || c.ru.prev[p].antenna != j) {
		// Once the order diverges, no later step may replay: its old
		// active-state context is gone.
		c.aligned = false
	}
	in := c.s.cur
	if !c.aligned || !c.ru.kept[j] || c.ru.capChanged[j] || c.dirty.anyEligible(in, in.Antennas[j]) {
		return angular.Window{}, false
	}
	win, ok := replay(c.ru.prev[p].win, c.ru.removed, active)
	if !ok {
		return angular.Window{}, false
	}
	c.trace = append(c.trace, stepRec{antenna: j, win: win})
	c.s.stats.StepsReused++
	return win, true
}

// Searched implements core.GreedyHook.
func (c *cascade) Searched(p, j int, win angular.Window) {
	if c.aligned {
		// The old step served a (possibly different) set; customers in
		// exactly one of the two sets have diverging availability from
		// here on.
		c.dirty.addSymDiff(remapSurvivors(c.ru.prev[p].win.Customers, c.ru.removed), win.Customers)
	}
	c.trace = append(c.trace, stepRec{antenna: j, win: win})
	c.s.stats.StepsResolved++
}

// replay remaps one recorded window onto the post-delta customer
// numbering. The reuse conditions guarantee none of its customers were
// removed or re-priced and all are still active; ok == false reports a
// violation (a bug elsewhere would have to cause it), in which case the
// step is searched — degrading to correctness instead of corrupting the
// assignment.
func replay(old angular.Window, removed []int, active []bool) (angular.Window, bool) {
	win := old
	if len(old.Customers) == 0 {
		return win, true
	}
	win.Customers = make([]int, len(old.Customers))
	for t, c := range old.Customers {
		nc, kept := remap(c, removed)
		if !kept || nc < 0 || nc >= len(active) || !active[nc] {
			return angular.Window{}, false
		}
		win.Customers[t] = nc
	}
	return win, true
}

// remap maps a pre-delta customer id onto the post-delta numbering, in
// which each survivor's id drops by its count of removed predecessors;
// kept is false for a removed customer.
func remap(c int, removed []int) (nc int, kept bool) {
	k := sort.SearchInts(removed, c)
	return c - k, k == len(removed) || removed[k] != c
}

// remapSurvivors remaps pre-delta customer ids, dropping removed ones (a
// removed customer exists for no downstream step, so it cannot carry
// dirtiness).
func remapSurvivors(ids []int, removed []int) []int {
	if len(ids) == 0 {
		return nil
	}
	out := make([]int, 0, len(ids))
	for _, c := range ids {
		if nc, kept := remap(c, removed); kept {
			out = append(out, nc)
		}
	}
	return out
}

// dirtySet tracks customers whose availability may differ from the previous
// solve. Membership is deduplicated so repeated symmetric differences stay
// linear.
type dirtySet struct {
	ids []int
	in  map[int]bool
}

func (d *dirtySet) add(i int) {
	if d.in == nil {
		d.in = make(map[int]bool)
	}
	if !d.in[i] {
		d.in[i] = true
		d.ids = append(d.ids, i)
	}
}

// addSymDiff adds every customer in exactly one of the two sets.
func (d *dirtySet) addSymDiff(old, new []int) {
	inOld := make(map[int]bool, len(old))
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
