package knapsack

// Options tunes the Solve dispatcher.
type Options struct {
	// Eps, when positive, skips the exact methods and runs the FPTAS at
	// this approximation parameter (the paper's (1−ε) factor). Zero runs
	// the exact ladder, which falls back to the FPTAS at DefaultEps.
	Eps float64
}

// DefaultEps is the FPTAS parameter of the exact ladder's fallback.
const DefaultEps = 0.05

// maxBBNodes is the dispatcher's branch-and-bound node budget.
const maxBBNodes = 2_000_000

// Solve picks a solver: with opt.Eps > 0 the FPTAS at that ε; otherwise
// the weight DP when the capacity is small, else branch and bound within
// a node budget, else the FPTAS at DefaultEps. The second return reports
// whether the result is certifiably optimal.
func Solve(items []Item, capacity int64, opt Options) (Result, bool, error) {
	n := len(items)
	if n == 0 {
		return Result{Take: []bool{}}, true, nil
	}
	if opt.Eps > 0 {
		res, err := FPTAS(items, capacity, opt.Eps)
		return res, false, err
	}
	if tableFits(n+1, capacity, MaxDPCells/16) {
		res, err := DPByWeight(items, capacity)
		if err == nil {
			return res, true, nil
		}
	}
	res, ok, err := BranchBound(items, capacity, maxBBNodes)
	if err != nil {
		return Result{}, false, err
	}
	if ok {
		return res, true, nil
	}
	// Budget exhausted: keep the incumbent if the FPTAS cannot beat it.
	approx, err := FPTAS(items, capacity, DefaultEps)
	if err != nil {
		return Result{}, false, err
	}
	if res.Profit >= approx.Profit {
		return res, false, nil
	}
	return approx, false, nil
}
