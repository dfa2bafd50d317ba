package mkp

// LocalSearch improves a feasible result by first-improvement moves until a
// local optimum or maxRounds passes: unassigned-item insertions, item
// relocations that make room for a new insertion, and pairwise swaps that
// free capacity. Returns the improved result (never worse than the input).
func LocalSearch(p *Problem, start Result, maxRounds int) (Result, error) {
	if err := p.Check(start); err != nil {
		return Result{}, err
	}
	n, m := len(p.Items), len(p.Capacities)
	res := Result{Profit: start.Profit, Bin: append([]int(nil), start.Bin...)}
	load := make([]int64, m)
	for i, b := range res.Bin {
		if b != Unassigned {
			load[b] += p.Items[i].Weight
		}
	}
	for round := 0; round < maxRounds; round++ {
		improved := false
		// Move 1: insert an unassigned item anywhere it fits.
		for i := 0; i < n; i++ {
			if res.Bin[i] != Unassigned || p.Items[i].Profit == 0 {
				continue
			}
			for j := 0; j < m; j++ {
				if p.eligible(i, j) && load[j]+p.Items[i].Weight <= p.Capacities[j] {
					res.Bin[i] = j
					load[j] += p.Items[i].Weight
					res.Profit += p.Items[i].Profit
					improved = true
					break
				}
			}
		}
		// Move 2: swap an assigned item with a heavier-profit unassigned
		// item in the same bin.
		for i := 0; i < n; i++ {
			if res.Bin[i] != Unassigned {
				continue
			}
			for k := 0; k < n; k++ {
				b := res.Bin[k]
				if b == Unassigned || !p.eligible(i, b) {
					continue
				}
				if p.Items[i].Profit <= p.Items[k].Profit {
					continue
				}
				if load[b]-p.Items[k].Weight+p.Items[i].Weight <= p.Capacities[b] {
					load[b] += p.Items[i].Weight - p.Items[k].Weight
					res.Profit += p.Items[i].Profit - p.Items[k].Profit
					res.Bin[i] = b
					res.Bin[k] = Unassigned
					improved = true
					break
				}
			}
		}
		// Move 3: relocate an assigned item to another bin to make room
		// for an unassigned item in its old bin.
		for k := 0; k < n && !improved; k++ {
			b := res.Bin[k]
			if b == Unassigned {
				continue
			}
			for j := 0; j < m; j++ {
				if j == b || !p.eligible(k, j) || load[j]+p.Items[k].Weight > p.Capacities[j] {
					continue
				}
				// Does moving k free room for some unassigned item in b?
				freed := load[b] - p.Items[k].Weight
				for i := 0; i < n; i++ {
					if res.Bin[i] == Unassigned && p.eligible(i, b) && p.Items[i].Profit > 0 &&
						freed+p.Items[i].Weight <= p.Capacities[b] {
						res.Bin[k] = j
						load[j] += p.Items[k].Weight
						load[b] = freed + p.Items[i].Weight
						res.Bin[i] = b
						res.Profit += p.Items[i].Profit
						improved = true
						break
					}
				}
				if improved {
					break
				}
			}
		}
		if !improved {
			break
		}
	}
	return res, nil
}
