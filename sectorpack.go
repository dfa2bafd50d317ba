// Package sectorpack is a Go implementation of the directional-antenna
// sector-packing problem from Berman, Jeong, Kasiviswanathan and Urgaonkar,
// "Packing to angles and sectors" (SPAA 2007 / ECCC TR06-030).
//
// Customers sit on the plane with integer demands; a directional antenna
// with parameters (α, ρ, R) serves the sector of points at angles
// [α, α+ρ] within radius R, up to an integer capacity. The library chooses
// antenna orientations and a customer assignment maximizing served profit,
// in three variants: Sectors (the general problem), Angles (unbounded
// radii), and DisjointAngles (serving sectors must not overlap).
//
// This package is the public façade: it re-exports the model types and the
// solver suite so downstream users never import internal packages.
//
//	in := sectorpack.MustGenerate(sectorpack.GenConfig{
//	    Family: sectorpack.Uniform, Seed: 1, N: 200, M: 4,
//	    Variant: sectorpack.Sectors,
//	})
//	sol, err := sectorpack.SolveGreedy(context.Background(), in, sectorpack.Options{})
//
// See DESIGN.md for the algorithm inventory and EXPERIMENTS.md for the
// reproduction results.
package sectorpack

import (
	"context"

	"sectorpack/internal/angular"
	"sectorpack/internal/core"
	"sectorpack/internal/exact"
	"sectorpack/internal/gen"
	"sectorpack/internal/model"
)

// Core model types (aliases, so values interoperate with the internals).
type (
	// Customer is a demand point on the plane.
	Customer = model.Customer
	// Antenna is a directional antenna with width, range and capacity.
	Antenna = model.Antenna
	// Instance is a complete problem instance.
	Instance = model.Instance
	// Assignment is an orientation-plus-ownership solution candidate.
	Assignment = model.Assignment
	// Solution pairs an assignment with its objective value.
	Solution = model.Solution
	// Variant selects the problem flavor (Sectors, Angles, DisjointAngles).
	Variant = model.Variant
	// Options tunes the approximation solvers.
	Options = core.Options
	// GenConfig describes a synthetic workload to generate.
	GenConfig = gen.Config
	// Family names a workload family.
	Family = gen.Family
)

// Problem variants.
const (
	// Sectors is the general problem: angle and radius both constrain.
	Sectors = model.Sectors
	// Angles is the pure angular problem (unbounded radii).
	Angles = model.Angles
	// DisjointAngles additionally requires serving sectors to be
	// pairwise interior-disjoint.
	DisjointAngles = model.DisjointAngles
)

// Workload families.
const (
	// Uniform scatters customers uniformly on a disk.
	Uniform = gen.Uniform
	// Hotspot clusters customers in a few angular hotspots.
	Hotspot = gen.Hotspot
	// Rings places customers on concentric rings.
	Rings = gen.Rings
	// Zipf draws heavy-tailed demands.
	Zipf = gen.Zipf
	// Adversarial embeds a greedy-killer knapsack gadget.
	Adversarial = gen.Adversarial
)

// Unassigned marks a customer served by no antenna.
const Unassigned = model.Unassigned

// SolveGreedy runs the successive best-window heuristic (the workhorse
// approximation; see internal/core.SolveGreedy).
func SolveGreedy(ctx context.Context, in *Instance, opt Options) (Solution, error) {
	return core.SolveGreedy(ctx, in, opt)
}

// SolveLocalSearch runs greedy plus reassignment/reorientation polish.
func SolveLocalSearch(ctx context.Context, in *Instance, opt Options) (Solution, error) {
	return core.SolveLocalSearch(ctx, in, opt)
}

// SolveLPRound runs greedy, then LP rounding of the assignment at the
// greedy orientations.
func SolveLPRound(ctx context.Context, in *Instance, opt Options) (Solution, error) {
	return core.SolveLPRound(ctx, in, opt)
}

// SolveUnitFlow solves unit-demand instances by max-flow b-matching; exact
// for a single antenna.
func SolveUnitFlow(ctx context.Context, in *Instance, opt Options) (Solution, error) {
	return core.SolveUnitFlow(ctx, in, opt)
}

// SolveDisjointDP solves the DisjointAngles variant exactly by the
// chain dynamic program (small antenna counts).
func SolveDisjointDP(ctx context.Context, in *Instance, opt Options) (Solution, error) {
	return angular.SolveDisjoint(ctx, in, opt.Knapsack)
}

// SolveAuto picks the strongest affordable solver for the instance (exact
// methods on small inputs, specialized solvers where they apply, greedy +
// local search otherwise); the chosen strategy is reported in
// Solution.Algorithm.
func SolveAuto(ctx context.Context, in *Instance, opt Options) (Solution, error) {
	return core.SolveAuto(ctx, in, opt)
}

// SolveExact computes the optimum of a small instance by exhaustive
// candidate-orientation enumeration, fanned out over the worker pool with
// the same answer at any worker count; use only for calibration.
func SolveExact(ctx context.Context, in *Instance) (Solution, error) {
	return exact.Solve(ctx, in, exact.Limits{})
}

// Solve dispatches to a registered solver by name; see SolverNames.
func Solve(ctx context.Context, name string, in *Instance, opt Options) (Solution, error) {
	s, err := core.Get(name)
	if err != nil {
		return Solution{}, err
	}
	return s(ctx, in, opt)
}

// SolverNames lists the registered solver names.
func SolverNames() []string { return core.Names() }

// BatchResult is one SolveBatch item's outcome: a verified solution or a
// typed error, never both.
type BatchResult = core.BatchResult

// SolveBatch solves every instance concurrently on a bounded worker pool
// with the named solver, returning per-item results aligned with the
// input; a failing item errors in its own slot while the rest proceed.
// See internal/core.SolveBatch for per-item deadlines and hedged batches.
func SolveBatch(ctx context.Context, name string, ins []*Instance, opt Options) ([]BatchResult, error) {
	s, err := core.Get(name)
	if err != nil {
		return nil, err
	}
	return core.SolveBatch(ctx, ins, s, core.BatchOptions{Options: opt, SolverName: name}), nil
}

// Fail-soft pipeline errors (aliases into internal/core).
type (
	// PanicError is a solver panic converted into an error by the fail-soft
	// pipeline; it carries the panic value and the captured stack.
	PanicError = core.PanicError
	// InvalidSolutionError reports solver output rejected by the post-solve
	// feasibility gate (missing assignment, Check failure, or a profit that
	// does not recompute).
	InvalidSolutionError = core.InvalidSolutionError
)

// SolveHedged dispatches to the named solver hedged by the greedy safety
// net: when the primary times out, errors, panics, or returns an invalid
// assignment, the greedy solution is returned instead, annotated with
// SolverUsed/FallbackReason provenance. Solution.Degraded is a method
// derived from FallbackReason (it was a field before), so a degraded
// answer always names its cause. A healthy primary's solution is
// bit-identical to Solve. When both fail, the joined errors are
// returned. See internal/core.SolveHedged for the full contract: the
// fallback runs alongside the primary, and after a primary failure it is
// waited on for at most a fixed second.
func SolveHedged(ctx context.Context, name string, in *Instance, opt Options) (Solution, error) {
	s, err := core.Get(name)
	if err != nil {
		return Solution{}, err
	}
	return core.SolveHedged(ctx, in, s, core.HedgeOptions{Options: opt, PrimaryName: name})
}

// UpperBound returns a certified upper bound on the optimal profit (the
// cheap per-antenna Dantzig bound, clipped by the total profit).
func UpperBound(in *Instance) float64 { return core.UpperBound(in) }

// ConfigLPBound returns the tighter orientation-relaxed configuration-LP
// upper bound; costlier (a dense LP solve) but never looser than
// UpperBound. See internal/core.ConfigLPBound for the formulation.
func ConfigLPBound(in *Instance) (float64, error) { return core.ConfigLPBound(in) }

// Generate builds a synthetic instance from the config.
func Generate(cfg GenConfig) (*Instance, error) { return gen.Generate(cfg) }

// MustGenerate is Generate that panics on error (static configs).
func MustGenerate(cfg GenConfig) *Instance { return gen.MustGenerate(cfg) }
