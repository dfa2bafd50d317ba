package knapsack

// FractionalBound returns the Dantzig LP relaxation optimum: fill by
// density and take the breaking item fractionally. It upper-bounds the
// integral optimum and is the bounding function of BranchBound.
func FractionalBound(items []Item, capacity int64) float64 {
	var bound float64
	remaining := capacity
	for _, i := range byDensity(items) {
		it := items[i]
		if it.Weight == 0 {
			bound += float64(it.Profit)
			continue
		}
		if it.Weight <= remaining {
			bound += float64(it.Profit)
			remaining -= it.Weight
		} else {
			bound += float64(it.Profit) * float64(remaining) / float64(it.Weight)
			break
		}
	}
	return bound
}
