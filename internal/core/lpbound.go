package core

import (
	"context"
	"fmt"

	"sectorpack/internal/angular"
	"sectorpack/internal/lp"
	"sectorpack/internal/model"
)

// MaxConfigLPVars caps the configuration LP size; beyond it the bound
// refuses rather than grinding the dense simplex.
const MaxConfigLPVars = 20_000

// ConfigLPBound returns the orientation-relaxed configuration-LP upper
// bound on the optimal profit — strictly tighter than UpperBound on
// instances where antennas compete for the same customers.
//
// Formulation: for each antenna j and candidate orientation α, a variable
// x_{jα} ∈ [0,1] ("how much of j points at α"); for each coverable triple
// (i, j, α), a variable y_{ijα} ≥ 0 ("how much of customer i antenna j
// serves at α"). Constraints: Σ_α x_{jα} ≤ 1 per antenna, Σ y_{ijα} ≤ 1
// per customer, and Σ_i d_i·y_{ijα} ≤ C_j·x_{jα} per (j, α). Maximize
// Σ p_i·y_{ijα}. Every integral solution embeds (x = the chosen
// orientations, y = the assignment), so the LP value dominates OPT; the
// LP may split antennas across orientations fractionally, which is the
// relaxation. (The y ≤ x coupling rows are deliberately dropped: that
// only loosens the bound slightly and keeps the tableau small.)
//
// The variable count is checked against MaxConfigLPVars while the windows
// are enumerated, so an oversized instance is refused before its LP is
// built.
func ConfigLPBound(in *model.Instance) (float64, error) {
	if err := in.Validate(); err != nil {
		return 0, fmt.Errorf("core: ConfigLPBound: %w", err)
	}
	n, m := in.N(), in.M()
	if n == 0 || m == 0 {
		return 0, nil
	}
	// Orientation o is variable x_o = o. The members of every window
	// follow in orientation order: members[k] is variable y = len(orients)+k.
	type orient struct {
		j          int
		start, end int // the window's members are members[start:end]
	}
	var orients []orient
	var members []int
	eng := angular.NewEngine(in)
	for j := 0; j < m; j++ {
		for _, alpha := range eng.Candidates(j) {
			start := len(members)
			members = eng.AppendMembers(members, j, alpha, nil)
			orients = append(orients, orient{j: j, start: start, end: len(members)})
			if len(orients)+len(members) > MaxConfigLPVars {
				return 0, fmt.Errorf("core: ConfigLPBound: more than %d variables", MaxConfigLPVars)
			}
		}
	}
	y0 := len(orients)
	nextVar := y0 + len(members)

	c := make([]float64, nextVar)
	for k, i := range members {
		c[y0+k] = float64(in.Customers[i].Profit)
	}
	var a [][]float64
	var b []float64
	row := func() []float64 { return make([]float64, nextVar) }

	// Σ_α x_{jα} ≤ 1 per antenna.
	perAntenna := make([][]float64, m)
	for j := range perAntenna {
		perAntenna[j] = row()
	}
	for oIdx, o := range orients {
		perAntenna[o.j][oIdx] = 1
	}
	for j := 0; j < m; j++ {
		a = append(a, perAntenna[j])
		b = append(b, 1)
	}
	// Σ y ≤ 1 per customer.
	perCustomer := make([][]float64, n)
	for i := range perCustomer {
		perCustomer[i] = row()
	}
	for k, i := range members {
		perCustomer[i][y0+k] = 1
	}
	for i := 0; i < n; i++ {
		a = append(a, perCustomer[i])
		b = append(b, 1)
	}
	// Σ_i d_i y_{ijα} − C_j x_{jα} ≤ 0 per orientation.
	perOrient := make([][]float64, len(orients))
	for oIdx := range perOrient {
		perOrient[oIdx] = row()
		perOrient[oIdx][oIdx] = -float64(in.Antennas[orients[oIdx].j].Capacity)
		for k := orients[oIdx].start; k < orients[oIdx].end; k++ {
			perOrient[oIdx][y0+k] = float64(in.Customers[members[k]].Demand)
		}
	}
	for oIdx := range orients {
		a = append(a, perOrient[oIdx])
		b = append(b, 0)
	}

	sol, err := lp.Maximize(c, a, b)
	if err != nil {
		return 0, fmt.Errorf("core: ConfigLPBound: %w", err)
	}
	if sol.Status != lp.Optimal {
		return 0, fmt.Errorf("core: ConfigLPBound: LP %v", sol.Status)
	}
	// The simple bound still applies; return the tighter of the two.
	if simple, _ := UpperBoundContext(context.Background(), eng); simple < sol.Value {
		return simple, nil
	}
	return sol.Value, nil
}
