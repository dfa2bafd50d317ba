// Package core assembles the sector-packing solvers from the substrates:
// candidate-orientation enumeration (internal/angular), knapsack and
// multiple-knapsack engines (internal/knapsack, internal/mkp), the LP
// relaxation (internal/lp via internal/mkp), and max-flow (internal/flow).
//
// The solvers, in decreasing guarantee / increasing scalability order:
//
//   - SolveExact (re-exported from internal/exact by the root package):
//     ground truth for tiny instances.
//   - angular.SolveDisjoint: exact pseudo-polynomial DP for the
//     DisjointAngles variant with few antennas.
//   - SolveUnitFlow: exact for unit demands and a single antenna; optimal
//     given fixed orientations for any antenna count.
//   - SolveGreedy: the successive best-window heuristic, the workhorse.
//   - SolveLPRound: LP relaxation of the assignment at greedy-chosen
//     orientations, randomized rounding, local-search repair.
//   - SolveLocalSearch: greedy plus reassignment/reorientation polish.
//
// Every solver returns a model.Solution whose Assignment passes
// (*model.Assignment).Check against the instance; tests enforce this
// invariant on randomized inputs.
package core

import (
	"fmt"
	"math/rand"

	"sectorpack/internal/exact"
	"sectorpack/internal/knapsack"
	"sectorpack/internal/model"
)

// Options tunes the approximation solvers.
type Options struct {
	// Knapsack configures the inner single-knapsack solves.
	Knapsack knapsack.Options
	// ExactLimits bounds the exhaustive exact solver when it is reached
	// through the registry or SolveAuto dispatch; the zero value keeps the
	// solver's own default (exact.DefaultMaxTuples). Callers serving
	// untrusted instances — the sectord daemon in particular — use it to
	// cap the orientation-tuple budget per request.
	ExactLimits exact.Limits
	// Seed drives all randomized components (LP rounding); solvers are
	// deterministic functions of (instance, Options).
	Seed int64
	// SkipBound suppresses the upper-bound computation (which scans all n
	// customers and solves one fractional knapsack at every candidate
	// orientation of every antenna) when the caller does not need ratios.
	SkipBound bool
}

// roundTrials is the LP-rounding repetition count.
const roundTrials = 8

// localSearchRounds caps local-search sweeps.
const localSearchRounds = 60

func (o Options) rng() *rand.Rand { return rand.New(rand.NewSource(o.Seed)) }

// validateForSolve runs the shared precondition checks.
func validateForSolve(in *model.Instance) error {
	if err := in.Validate(); err != nil {
		return fmt.Errorf("core: invalid instance: %w", err)
	}
	return nil
}
