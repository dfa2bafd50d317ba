package core

import (
	"context"
	"fmt"

	"sectorpack/internal/angular"
	"sectorpack/internal/model"
)

// SolveGreedyWarm is SolveGreedy running on a caller-maintained engine
// instead of building (and prewarming) its own. A delta session keeps one
// engine warm across re-solves — sweeps survive every delta that cannot
// touch them (angular.Engine.Rebase) — so the dominant from-scratch cost,
// rebuilding per-antenna sweep state, is skipped. The engine caches only
// instance geometry, never assignment state, so the result is bit-identical
// to SolveGreedy on the same instance and options (the session differential
// suite enforces this).
//
// The engine must have been built for (or rebased onto) exactly this
// instance value; a mismatch is an error rather than a silent wrong answer.
func SolveGreedyWarm(ctx context.Context, in *model.Instance, opt Options, eng *angular.Engine) (model.Solution, error) {
	if err := checkWarmEngine(in, eng); err != nil {
		return model.Solution{}, err
	}
	if err := validateForSolve(in); err != nil {
		return model.Solution{}, err
	}
	return solveGreedyWithEngine(ctx, in, opt, nil, eng, nil)
}

// SolveGreedyHooked is SolveGreedyWarm with a step hook, for a delta
// session that replays the steps a delta provably left unchanged. It skips
// SolveGreedyWarm's Instance.Validate: the session validated the instance
// when it was created and model.ApplyDelta validates every delta.
func SolveGreedyHooked(ctx context.Context, in *model.Instance, opt Options, eng *angular.Engine, hook GreedyHook) (model.Solution, error) {
	if err := checkWarmEngine(in, eng); err != nil {
		return model.Solution{}, err
	}
	return solveGreedyWithEngine(ctx, in, opt, nil, eng, hook)
}

// SolveLocalSearchWarm is SolveLocalSearch on a caller-maintained engine,
// with the same contract as SolveGreedyWarm: bit-identical results, the
// engine must match the instance.
func SolveLocalSearchWarm(ctx context.Context, in *model.Instance, opt Options, eng *angular.Engine) (model.Solution, error) {
	if err := checkWarmEngine(in, eng); err != nil {
		return model.Solution{}, err
	}
	if err := validateForSolve(in); err != nil {
		return model.Solution{}, err
	}
	return solveLocalSearchWithEngine(ctx, in, opt, eng)
}

func checkWarmEngine(in *model.Instance, eng *angular.Engine) error {
	if eng == nil {
		return fmt.Errorf("core: warm solve requires an engine")
	}
	if eng.Instance() != in {
		return fmt.Errorf("core: engine was built for a different instance")
	}
	return nil
}
