package angular

import (
	"context"

	"sectorpack/internal/knapsack"
	"sectorpack/internal/model"
)

// Window is the outcome of a best-single-window search: an orientation, the
// customers to serve there, and the resulting profit.
type Window struct {
	Alpha     float64
	Customers []int // customer indices to serve
	Profit    int64
	Exact     bool // whether the result is certifiably the candidate-set optimum
}

// BestWindow finds the most profitable placement of a single antenna: the
// rotating sweep enumerates every candidate window (orientation plus
// covered set), a knapsack selects within each, and the best candidate
// wins. Evaluation goes through a one-shot Engine: candidate windows are
// streamed (never materialized), the one with the highest Dantzig bound is
// solved first, the rest are pruned when their bound cannot beat the
// incumbent, and the survivors fan out over GOMAXPROCS workers when there
// are enough of them to pay for it. Callers
// evaluating many windows of the same instance — one per greedy step, one
// per local-search reorientation — should build an Engine once and reuse it
// so the per-antenna sweeps are shared.
//
// With an exact inner solver the result is the true single-antenna optimum
// (by the candidate-orientation lemma); with the FPTAS it is a (1−ε)
// approximation of it.
func BestWindow(ctx context.Context, in *model.Instance, antenna int, active []bool, opt knapsack.Options) (Window, error) {
	return NewEngine(in).BestWindow(ctx, antenna, active, opt)
}

// better merges two windows: higher profit wins; exactness survives only if
// both the winner and every considered candidate were exact, which callers
// get by folding with this function (Exact of the fold = AND of all).
func better(acc, cand Window) Window {
	exact := acc.Exact && cand.Exact
	if cand.Profit > acc.Profit {
		cand.Exact = exact
		return cand
	}
	acc.Exact = exact
	return acc
}

// clampEmpty normalizes the "nothing profitable" case to a zero window.
func clampEmpty(w Window) Window {
	if w.Profit < 0 {
		w.Profit = 0
		w.Customers = nil
	}
	return w
}
