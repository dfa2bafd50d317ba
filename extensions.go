package sectorpack

import (
	"context"

	"sectorpack/internal/core"
	"sectorpack/internal/cover"
	"sectorpack/internal/fair"
	"sectorpack/internal/geom"
	"sectorpack/internal/knapsack"
	"sectorpack/internal/model"
	"sectorpack/internal/multistation"
	"sectorpack/internal/online"
	"sectorpack/internal/viz"
)

// --- covering companion (minimum antennas to serve everyone) ---

type (
	// CoverAntennaType describes the antenna model used for covering.
	CoverAntennaType = cover.AntennaType
	// CoverResult is a covering solution (placements serving everyone).
	CoverResult = cover.Result
	// CoverPlacement is one placed antenna in a covering solution.
	CoverPlacement = cover.Placement
)

// CoverGreedy covers all customers with greedily placed antennas of the
// given type (max-coverage steps; H_n-style guarantee for unit demands).
func CoverGreedy(ctx context.Context, customers []Customer, typ CoverAntennaType) (CoverResult, error) {
	return cover.Greedy(ctx, customers, typ)
}

// CoverExact finds the minimum antenna count by iterative deepening; small
// instances only (see cover.MaxExactCustomers).
func CoverExact(ctx context.Context, customers []Customer, typ CoverAntennaType, maxK int) (CoverResult, error) {
	return cover.Exact(ctx, customers, typ, maxK)
}

// CoverCheck validates a covering solution.
func CoverCheck(customers []Customer, typ CoverAntennaType, r CoverResult) error {
	return cover.Check(customers, typ, r)
}

// --- online arrivals ---

type (
	// OnlinePolicy decides admission for one arriving customer.
	OnlinePolicy = online.Policy
	// OnlineFirstFit admits to the lowest-indexed feasible antenna.
	OnlineFirstFit = online.FirstFit
	// OnlineBestFit admits to the tightest feasible antenna.
	OnlineBestFit = online.BestFit
	// OnlineThreshold rejects low-density customers, then best-fits.
	OnlineThreshold = online.Threshold
)

// OnlineRun plays an arrival sequence through a policy at fixed
// orientations and returns the resulting assignment.
func OnlineRun(in *Instance, orientations []float64, order []int, p OnlinePolicy) (*Assignment, error) {
	return online.Run(in, orientations, order, p)
}

// OrientUniform spreads antenna orientations evenly (no-information
// baseline for online deployment).
func OrientUniform(in *Instance) []float64 { return online.OrientUniform(in) }

// OrientFromSample orients antennas by solving offline greedy on a random
// sample of the customers (a demand forecast).
func OrientFromSample(ctx context.Context, in *Instance, frac float64, seed int64) ([]float64, error) {
	return online.OrientFromSample(ctx, in, frac, seed)
}

// --- multi-station deployments ---

type (
	// XY is a Cartesian point on the plane.
	XY = geom.XY
	// Polar is a polar point around a base station.
	Polar = geom.Polar
	// MultiInstance is a problem with several base stations on the plane.
	MultiInstance = multistation.Instance
	// MultiStation is one base station with its antennas.
	MultiStation = multistation.Station
	// MultiCustomer is a Cartesian demand point.
	MultiCustomer = multistation.Customer
	// MultiAssignment is a multi-station solution.
	MultiAssignment = multistation.Assignment
)

// SolveMultiGreedy runs the successive best-window greedy across every
// (station, antenna) pair of a multi-station instance.
func SolveMultiGreedy(ctx context.Context, in *MultiInstance, opt Options) (*MultiAssignment, int64, error) {
	return multistation.SolveGreedy(ctx, in, opt.Knapsack)
}

// ensure the Options knapsack field stays structurally compatible.
var _ knapsack.Options = Options{}.Knapsack

// --- splittable demands ---

// SplitSolution is a fractional-service solution (splittable demands).
type SplitSolution = core.SplitSolution

// SolveSplittable solves the splittable-demand variant at greedy-chosen
// orientations (exact LP given the orientations).
func SolveSplittable(ctx context.Context, in *Instance, opt Options) (SplitSolution, error) {
	return core.SolveSplittable(ctx, in, opt)
}

// SolveSplittableExact computes the true splittable optimum for small
// instances (candidate-tuple enumeration with an LP per tuple).
func SolveSplittableExact(ctx context.Context, in *Instance) (SplitSolution, error) {
	return core.SolveSplittableExact(ctx, in)
}

// --- fairness across customer classes ---

// FairSolution is a max-min fair fractional plan across customer classes.
type FairSolution = fair.Solution

// SolveFair maximizes the minimum class service fraction, then total
// profit subject to that floor. classes[i] is customer i's class id; nil
// means a single class.
func SolveFair(ctx context.Context, in *Instance, classes []int, opt Options) (FairSolution, error) {
	return fair.Solve(ctx, in, classes, opt)
}

// --- visualization ---

// VizOptions controls RenderASCII.
type VizOptions = viz.Options

// RenderASCII draws the instance (and optional solution) as an ASCII polar
// plot with per-antenna legend.
func RenderASCII(in *Instance, as *Assignment, opt VizOptions) string {
	return viz.Render(in, as, opt)
}

// compile-time checks that the façade types stay aliases of the internals.
var (
	_ = model.Unassigned
)
