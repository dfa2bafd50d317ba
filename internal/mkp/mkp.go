// Package mkp solves the multiple-knapsack problem with assignment
// restrictions: items (customers) with weights and profits, bins (antennas)
// with capacities, and an eligibility relation saying which items each bin
// may hold. In sector packing the eligibility relation is "the oriented
// sector covers the customer"; once orientations are fixed the remaining
// optimization is exactly this problem.
//
// Restricted MKP generalizes 0/1 knapsack (one bin, all eligible), so it is
// NP-hard; the package provides an LP relaxation with randomized rounding,
// local-search improvement, and an exact branch-and-bound for small
// instances. The successive-knapsack greedy lives in core.SolveGreedy, which
// chooses each bin's orientation along with its contents.
package mkp

import (
	"fmt"

	"sectorpack/internal/knapsack"
)

// Unassigned marks an item placed in no bin.
const Unassigned = -1

// Problem is a restricted multiple-knapsack instance.
type Problem struct {
	Items      []knapsack.Item
	Capacities []int64
	// Eligible[i][j] says item i may be placed in bin j. A nil matrix
	// means every item is eligible for every bin.
	Eligible [][]bool
}

// eligible reports whether item i may enter bin j.
func (p *Problem) eligible(i, j int) bool {
	if p.Eligible == nil {
		return true
	}
	return p.Eligible[i][j]
}

// Validate checks shapes and value ranges.
func (p *Problem) Validate() error {
	n, m := len(p.Items), len(p.Capacities)
	for i, it := range p.Items {
		if it.Weight < 0 || it.Profit < 0 {
			return fmt.Errorf("mkp: item %d has negative weight or profit", i)
		}
	}
	for j, c := range p.Capacities {
		if c < 0 {
			return fmt.Errorf("mkp: bin %d has negative capacity %d", j, c)
		}
	}
	if p.Eligible != nil {
		if len(p.Eligible) != n {
			return fmt.Errorf("mkp: eligibility has %d rows, want %d", len(p.Eligible), n)
		}
		for i, row := range p.Eligible {
			if len(row) != m {
				return fmt.Errorf("mkp: eligibility row %d has %d cols, want %d", i, len(row), m)
			}
		}
	}
	return nil
}

// Result is a feasible placement: Bin[i] is the bin of item i or Unassigned.
type Result struct {
	Profit int64
	Bin    []int
}

// Check verifies feasibility of a result against the problem and that the
// reported profit matches the placement.
func (p *Problem) Check(r Result) error {
	if len(r.Bin) != len(p.Items) {
		return fmt.Errorf("mkp: result covers %d items, want %d", len(r.Bin), len(p.Items))
	}
	load := make([]int64, len(p.Capacities))
	var profit int64
	for i, b := range r.Bin {
		if b == Unassigned {
			continue
		}
		if b < 0 || b >= len(p.Capacities) {
			return fmt.Errorf("mkp: item %d in unknown bin %d", i, b)
		}
		if !p.eligible(i, b) {
			return fmt.Errorf("mkp: item %d not eligible for bin %d", i, b)
		}
		load[b] += p.Items[i].Weight
		profit += p.Items[i].Profit
	}
	for j, l := range load {
		if l > p.Capacities[j] {
			return fmt.Errorf("mkp: bin %d overloaded %d > %d", j, l, p.Capacities[j])
		}
	}
	if profit != r.Profit {
		return fmt.Errorf("mkp: reported profit %d != placement profit %d", r.Profit, profit)
	}
	return nil
}

// emptyResult returns an all-unassigned result for n items.
func emptyResult(n int) Result {
	r := Result{Bin: make([]int, n)}
	for i := range r.Bin {
		r.Bin[i] = Unassigned
	}
	return r
}
