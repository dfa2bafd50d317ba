package core

import (
	"context"
	"fmt"

	"sectorpack/internal/angular"
	"sectorpack/internal/knapsack"
	"sectorpack/internal/mkp"
	"sectorpack/internal/model"
)

// SplitSolution is a solution of the splittable-demand variant: each
// customer's demand may be divided across the antennas covering it, and
// profit accrues proportionally to the fraction served.
type SplitSolution struct {
	Orientation []float64
	// Frac[i][j] is the fraction of customer i served by antenna j.
	Frac  [][]float64
	Value float64
	// Exact reports whether the orientations were chosen by exhaustive
	// candidate enumeration (true splittable optimum) rather than a
	// greedy pass.
	Exact bool
}

// Check verifies fractional feasibility: coverage of every positive
// fraction, per-customer total at most 1, per-antenna fractional load
// within capacity, and the reported value.
func (s SplitSolution) Check(in *model.Instance) error {
	if len(s.Orientation) != in.M() || len(s.Frac) != in.N() {
		return fmt.Errorf("splittable: shape mismatch")
	}
	const tol = 1e-6
	load := make([]float64, in.M())
	var value float64
	for i, row := range s.Frac {
		if len(row) != in.M() {
			return fmt.Errorf("splittable: customer %d row has %d antennas", i, len(row))
		}
		var total float64
		for j, f := range row {
			if f < -tol {
				return fmt.Errorf("splittable: negative fraction x[%d][%d] = %v", i, j, f)
			}
			if f > tol && !in.Antennas[j].Covers(s.Orientation[j], in.Customers[i]) {
				return fmt.Errorf("splittable: customer %d fractionally served by non-covering antenna %d", i, j)
			}
			total += f
			load[j] += f * float64(in.Customers[i].Demand)
			value += f * float64(in.Customers[i].Profit)
		}
		if total > 1+tol {
			return fmt.Errorf("splittable: customer %d served %v > 1", i, total)
		}
	}
	for j, l := range load {
		if l > float64(in.Antennas[j].Capacity)*(1+tol)+tol {
			return fmt.Errorf("splittable: antenna %d fractional load %v exceeds %d", j, l, in.Antennas[j].Capacity)
		}
	}
	if diff := s.Value - value; diff > tol*(1+value) || diff < -tol*(1+value) {
		return fmt.Errorf("splittable: reported value %v != recomputed %v", s.Value, value)
	}
	return nil
}

// splitAt solves the splittable assignment LP at fixed orientations.
func splitAt(in *model.Instance, alphas []float64) (SplitSolution, error) {
	n, m := in.N(), in.M()
	p := &mkp.Problem{
		Items:      make([]knapsack.Item, n),
		Capacities: make([]int64, m),
		Eligible:   make([][]bool, n),
	}
	for i, c := range in.Customers {
		p.Items[i] = knapsack.Item{Weight: c.Demand, Profit: c.Profit}
		p.Eligible[i] = make([]bool, m)
		for j, a := range in.Antennas {
			p.Eligible[i][j] = a.Covers(alphas[j], c)
		}
	}
	for j, a := range in.Antennas {
		p.Capacities[j] = a.Capacity
	}
	value, x, err := mkp.LPRelax(p)
	if err != nil {
		return SplitSolution{}, err
	}
	return SplitSolution{
		Orientation: append([]float64(nil), alphas...),
		Frac:        x,
		Value:       value,
	}, nil
}

// SolveSplittable solves the splittable-demand variant heuristically:
// orientations from the greedy integral pass, then the exact fractional
// assignment LP at those orientations. Its value always dominates the
// integral greedy (the greedy assignment is LP-feasible).
func SolveSplittable(ctx context.Context, in *model.Instance, opt Options) (SplitSolution, error) {
	g, err := SolveGreedy(ctx, in, opt)
	if err != nil {
		return SplitSolution{}, err
	}
	if in.N() == 0 || in.M() == 0 {
		return SplitSolution{Orientation: make([]float64, in.M()), Frac: make([][]float64, in.N())}, nil
	}
	return splitAt(in, g.Assignment.Orientation)
}

// MaxSplittableTuples guards SolveSplittableExact's enumeration.
const MaxSplittableTuples = 100_000

// SolveSplittableExact computes the true splittable optimum for small
// instances by enumerating candidate orientation tuples (the
// candidate-orientation lemma holds verbatim for fractional service) and
// solving the LP at each. Sectors/Angles variants only.
//
// Cancellation: ctx is checked before each tuple's LP solve.
func SolveSplittableExact(ctx context.Context, in *model.Instance) (SplitSolution, error) {
	if err := validateForSolve(in); err != nil {
		return SplitSolution{}, err
	}
	if in.Variant == model.DisjointAngles {
		return SplitSolution{}, fmt.Errorf("core: SolveSplittableExact does not support %v", in.Variant)
	}
	n, m := in.N(), in.M()
	if n == 0 || m == 0 {
		return SplitSolution{Orientation: make([]float64, m), Frac: make([][]float64, n), Exact: true}, nil
	}
	eng := angular.NewEngine(in)
	if err := eng.Prewarm(ctx); err != nil {
		return SplitSolution{}, err
	}
	cands := make([][]float64, m)
	total := int64(1)
	for j := 0; j < m; j++ {
		if err := ctx.Err(); err != nil {
			return SplitSolution{}, err
		}
		if cands[j] = eng.Candidates(j); len(cands[j]) == 0 {
			cands[j] = []float64{0}
		}
		total *= int64(len(cands[j]))
		if total > MaxSplittableTuples {
			return SplitSolution{}, fmt.Errorf("core: splittable tuple space exceeds %d", MaxSplittableTuples)
		}
	}
	best := SplitSolution{Value: -1}
	alphas := make([]float64, m)
	var rec func(j int) error
	rec = func(j int) error {
		if j == m {
			if err := ctx.Err(); err != nil {
				return err
			}
			s, err := splitAt(in, alphas)
			if err != nil {
				return err
			}
			if s.Value > best.Value {
				best = s
			}
			return nil
		}
		for _, a := range cands[j] {
			alphas[j] = a
			if err := rec(j + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0); err != nil {
		return SplitSolution{}, err
	}
	best.Exact = true
	return best, nil
}
