package angular

// Window is the outcome of a best-single-window search: an orientation, the
// customers to serve there, and the resulting profit.
type Window struct {
	Alpha     float64
	Customers []int // customer indices to serve
	Profit    int64
	Exact     bool // whether the result is certifiably the candidate-set optimum
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
