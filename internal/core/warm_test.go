package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"sectorpack/internal/angular"
	"sectorpack/internal/model"
)

// solutionKey renders a solution at full precision, so any drift between
// two solve paths shows up as a string diff.
func solutionKey(sol model.Solution) string {
	return fmt.Sprintf("profit=%d ub=%.17g orient=%.17g owner=%v",
		sol.Profit, sol.UpperBound, sol.Assignment.Orientation, sol.Assignment.Owner)
}

// replayAllHook records every searched window and, once armed, replays
// them all.
type replayAllHook struct {
	wins     []angular.Window
	armed    bool
	searched int
}

func (h *replayAllHook) Replay(p, _ int, _ []bool) (angular.Window, bool) {
	if !h.armed {
		return angular.Window{}, false
	}
	return h.wins[p], true
}

func (h *replayAllHook) Searched(_, _ int, win angular.Window) {
	h.wins = append(h.wins, win)
	h.searched++
}

// TestWarmEntriesMatchColdSolves: on a prewarmed engine the warm greedy
// entries answer bit for bit as SolveGreedy, a hook that replays every
// recorded window reproduces the answer without searching, and an engine
// built for another instance is refused.
func TestWarmEntriesMatchColdSolves(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(31))
	for _, variant := range []model.Variant{model.Sectors, model.DisjointAngles} {
		in := randInstance(rng, 40, 3, variant)
		opt := Options{Seed: 2}
		eng := angular.NewEngine(in)
		if err := eng.Prewarm(ctx); err != nil {
			t.Fatal(err)
		}
		cold, err := SolveGreedy(ctx, in, opt)
		if err != nil {
			t.Fatal(err)
		}
		hook := &replayAllHook{}
		for _, warm := range []func() (model.Solution, error){
			func() (model.Solution, error) { return SolveGreedyWarm(ctx, in, opt, eng) },
			func() (model.Solution, error) { return SolveGreedyHooked(ctx, in, opt, eng, nil) },
			func() (model.Solution, error) { return SolveGreedyHooked(ctx, in, opt, eng, hook) },
			func() (model.Solution, error) { hook.armed = true; return SolveGreedyHooked(ctx, in, opt, eng, hook) },
		} {
			sol, err := warm()
			if err != nil {
				t.Fatal(err)
			}
			if got, want := solutionKey(sol), solutionKey(cold); got != want {
				t.Fatalf("%v greedy: warm path drifted:\n got  %s\n want %s", variant, got, want)
			}
		}
		if hook.searched != in.M() {
			t.Errorf("%v: hook saw %d searches over two solves, want %d (none once replaying)", variant, hook.searched, in.M())
		}

		other := in.Clone()
		if _, err := SolveGreedyWarm(ctx, other, opt, eng); err == nil {
			t.Errorf("%v: SolveGreedyWarm accepted an engine built for another instance", variant)
		}
		if _, err := SolveGreedyHooked(ctx, other, opt, eng, nil); err == nil {
			t.Errorf("%v: SolveGreedyHooked accepted an engine built for another instance", variant)
		}
	}
}
