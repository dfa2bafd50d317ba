package model

import (
	"fmt"

	"sectorpack/internal/geom"
)

// Unassigned marks a customer not served by any antenna.
const Unassigned = -1

// Assignment is a complete solution candidate: an orientation per antenna
// and an owner antenna (or Unassigned) per customer. Indices are positions
// into the instance slices.
type Assignment struct {
	Orientation []float64 // len = M
	Owner       []int     // len = N; antenna index or Unassigned
}

// NewAssignment returns an empty assignment (every customer unassigned,
// every antenna oriented at 0) for the given instance shape.
func NewAssignment(n, m int) *Assignment {
	as := &Assignment{
		Orientation: make([]float64, m),
		Owner:       make([]int, n),
	}
	for i := range as.Owner {
		as.Owner[i] = Unassigned
	}
	return as
}

// Clone deep-copies the assignment.
func (as *Assignment) Clone() *Assignment {
	return &Assignment{
		Orientation: append([]float64(nil), as.Orientation...),
		Owner:       append([]int(nil), as.Owner...),
	}
}

// Profit returns the total profit of the served customers.
func (as *Assignment) Profit(in *Instance) int64 {
	var p int64
	for i, owner := range as.Owner {
		if owner != Unassigned {
			p += in.Customers[i].Profit
		}
	}
	return p
}

// ServedDemand returns the total demand of the served customers.
func (as *Assignment) ServedDemand(in *Instance) int64 {
	var d int64
	for i, owner := range as.Owner {
		if owner != Unassigned {
			d += in.Customers[i].Demand
		}
	}
	return d
}

// Load returns the demand assigned to each antenna.
func (as *Assignment) Load(in *Instance) []int64 {
	load := make([]int64, in.M())
	for i, owner := range as.Owner {
		if owner != Unassigned {
			load[owner] += in.Customers[i].Demand
		}
	}
	return load
}

// ServedCount returns the number of served customers.
func (as *Assignment) ServedCount() int {
	n := 0
	for _, owner := range as.Owner {
		if owner != Unassigned {
			n++
		}
	}
	return n
}

// Sectors returns the oriented sector of each antenna.
func (as *Assignment) Sectors(in *Instance) []geom.Sector {
	out := make([]geom.Sector, in.M())
	for j, a := range in.Antennas {
		out[j] = a.Sector(as.Orientation[j])
	}
	return out
}

// Check verifies feasibility of the assignment against the instance and its
// variant: shape agreement, geometric coverage, capacities, and (for
// DisjointAngles) pairwise sector disjointness. It returns nil when the
// assignment is feasible.
func (as *Assignment) Check(in *Instance) error {
	if len(as.Owner) != in.N() {
		return fmt.Errorf("assignment has %d owners for %d customers", len(as.Owner), in.N())
	}
	if len(as.Orientation) != in.M() {
		return fmt.Errorf("assignment has %d orientations for %d antennas", len(as.Orientation), in.M())
	}
	load := make([]int64, in.M())
	for i, owner := range as.Owner {
		if owner == Unassigned {
			continue
		}
		if owner < 0 || owner >= in.M() {
			return fmt.Errorf("customer %d assigned to nonexistent antenna %d", i, owner)
		}
		a := in.Antennas[owner]
		if !a.Covers(as.Orientation[owner], in.Customers[i]) {
			return fmt.Errorf("customer %d (θ=%.6f r=%.3f) not covered by antenna %d oriented at %.6f (ρ=%.6f R=%v)",
				i, in.Customers[i].Theta, in.Customers[i].R, owner, as.Orientation[owner], a.Rho, a.EffRange())
		}
		load[owner] += in.Customers[i].Demand
	}
	for j, l := range load {
		if l > in.Antennas[j].Capacity {
			return fmt.Errorf("antenna %d overloaded: %d > capacity %d", j, l, in.Antennas[j].Capacity)
		}
	}
	if in.Variant == DisjointAngles {
		// Disjointness binds only for antennas that actually serve
		// customers: an antenna serving nobody is effectively switched
		// off, so its nominal orientation occupies no spectrum. Sector
		// interiors must be disjoint; flush boundaries are allowed.
		serving := make([]bool, in.M())
		for _, owner := range as.Owner {
			if owner != Unassigned {
				serving[owner] = true
			}
		}
		var ivs []geom.Interval
		for j, a := range in.Antennas {
			if serving[j] {
				ivs = append(ivs, geom.NewInterval(as.Orientation[j], a.Rho))
			}
		}
		if !geom.Disjoint(ivs) {
			return fmt.Errorf("variant %v: serving sectors overlap", in.Variant)
		}
	}
	return nil
}

// Solution pairs an assignment with its objective value and provenance.
type Solution struct {
	Assignment *Assignment
	Profit     int64
	Algorithm  string
	// UpperBound, when positive, is a certified upper bound on the optimum
	// produced alongside the solution (e.g. an LP relaxation value).
	UpperBound float64

	// SolverUsed names the registry solver that actually produced the
	// assignment when the solve went through a hedged pipeline; empty for
	// plain solves.
	SolverUsed string
	// FallbackReason is the machine-readable cause of degradation, empty
	// for a solution the requested solver produced: one of
	// core.FallbackDeadline, core.FallbackPanic, core.FallbackError,
	// core.FallbackInvalid.
	FallbackReason string
	// FallbackDetail is the primary solver's error text when the solution
	// is degraded, for logs and diagnostics.
	FallbackDetail string
	// HedgeWin reports that the fallback leg had already finished when the
	// primary failed, so the degraded answer added no latency.
	HedgeWin bool
}

// Degraded reports that the requested solver did not produce this
// solution: it timed out, panicked, errored, or returned an invalid
// assignment, and a hedged fallback answered instead (core.SolveHedged).
// It is derived from FallbackReason, so a degraded solution always
// carries its cause.
func (s Solution) Degraded() bool { return s.FallbackReason != "" }

// Ratio returns Profit / UpperBound when an upper bound is available, else 0.
func (s Solution) Ratio() float64 {
	if s.UpperBound <= 0 {
		return 0
	}
	return float64(s.Profit) / s.UpperBound
}

func (s Solution) String() string {
	if s.UpperBound > 0 {
		return fmt.Sprintf("%s: profit=%d (≥ %.3f of bound %.1f)", s.Algorithm, s.Profit, s.Ratio(), s.UpperBound)
	}
	return fmt.Sprintf("%s: profit=%d", s.Algorithm, s.Profit)
}
