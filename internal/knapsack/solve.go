package knapsack

// Options tunes the Solve dispatcher.
type Options struct {
	// Eps is the FPTAS approximation parameter used when no exact method
	// is affordable. Zero means DefaultEps.
	Eps float64
	// MaxBBNodes caps the branch-and-bound search. Zero means
	// DefaultMaxBBNodes.
	MaxBBNodes int64
	// ForceApprox skips exact methods entirely (used by experiments that
	// measure the approximation pipeline in isolation).
	ForceApprox bool
}

// DefaultEps is the dispatcher's FPTAS parameter when none is given.
const DefaultEps = 0.05

// DefaultMaxBBNodes is the dispatcher's branch-and-bound node budget.
const DefaultMaxBBNodes = 2_000_000

// Solve picks a solver automatically: the weight DP when the capacity is
// small, otherwise branch and bound within a node budget, otherwise the
// FPTAS. The second return reports whether the result is certifiably
// optimal.
func Solve(items []Item, capacity int64, opt Options) (Result, bool, error) {
	eps := opt.Eps
	if eps == 0 {
		eps = DefaultEps
	}
	maxNodes := opt.MaxBBNodes
	if maxNodes == 0 {
		maxNodes = DefaultMaxBBNodes
	}
	n := len(items)
	if n == 0 {
		return Result{Take: []bool{}}, true, nil
	}
	if !opt.ForceApprox {
		if tableFits(n+1, capacity, MaxDPCells/16) {
			res, err := DPByWeight(items, capacity)
			if err == nil {
				return res, true, nil
			}
		}
		res, ok, err := BranchBound(items, capacity, maxNodes)
		if err != nil {
			return Result{}, false, err
		}
		if ok {
			return res, true, nil
		}
		// Budget exhausted: keep the incumbent if the FPTAS cannot beat it.
		approx, err := FPTAS(items, capacity, eps)
		if err != nil {
			return Result{}, false, err
		}
		if res.Profit >= approx.Profit {
			return res, false, nil
		}
		return approx, false, nil
	}
	res, err := FPTAS(items, capacity, eps)
	return res, false, err
}
