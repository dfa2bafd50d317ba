// Package cover solves the covering companion of sector packing: given the
// customers and one antenna type (width ρ, range R, capacity C), place the
// minimum number of antennas — orientations plus a capacity-respecting
// assignment — that serves every customer.
//
// This is the natural "dual" objective of the paper's packing problem
// [reconstruction: the paper maximizes served demand for a fixed antenna
// set; planners also ask the converse question]. With unit demands and
// unbounded capacity it is exactly minimum covering of circular points by
// arcs, which greedy covers within the usual logarithmic set-cover factor;
// with capacities the greedy remains a heuristic and the exact solver does
// iterative deepening over the antenna count.
package cover

import (
	"context"
	"fmt"

	"sectorpack/internal/angular"
	"sectorpack/internal/exact"
	"sectorpack/internal/knapsack"
	"sectorpack/internal/model"
)

// AntennaType describes the single antenna model being placed.
type AntennaType struct {
	Rho      float64 // angular width (radians)
	Range    float64 // radial reach; <= 0 means unbounded
	Capacity int64   // per-antenna capacity
}

// Placement is one placed antenna: its orientation and the customers it
// serves.
type Placement struct {
	Alpha     float64
	Customers []int
}

// Result is a covering solution.
type Result struct {
	Placements []Placement
	Algorithm  string
}

// K returns the number of antennas used.
func (r Result) K() int { return len(r.Placements) }

// Check verifies that the placements serve every customer exactly once
// within coverage and capacity.
func Check(customers []model.Customer, typ AntennaType, r Result) error {
	served := make([]int, len(customers))
	ant := model.Antenna{Rho: typ.Rho, Range: typ.Range, Capacity: typ.Capacity}
	for p, pl := range r.Placements {
		var load int64
		for _, i := range pl.Customers {
			if i < 0 || i >= len(customers) {
				return fmt.Errorf("cover: placement %d serves unknown customer %d", p, i)
			}
			served[i]++
			if !ant.Covers(pl.Alpha, customers[i]) {
				return fmt.Errorf("cover: placement %d at α=%v does not cover customer %d", p, pl.Alpha, i)
			}
			load += customers[i].Demand
		}
		if load > typ.Capacity {
			return fmt.Errorf("cover: placement %d overloaded: %d > %d", p, load, typ.Capacity)
		}
	}
	for i, s := range served {
		if s == 0 {
			return fmt.Errorf("cover: customer %d unserved", i)
		}
		if s > 1 {
			return fmt.Errorf("cover: customer %d served %d times", i, s)
		}
	}
	return nil
}

// feasibilityCheck rejects instances no antenna count can cover.
func feasibilityCheck(customers []model.Customer, typ AntennaType) error {
	ant := model.Antenna{Rho: typ.Rho, Range: typ.Range, Capacity: typ.Capacity}
	for i, c := range customers {
		if !ant.InRange(c) {
			return fmt.Errorf("cover: customer %d at r=%v beyond antenna range %v", i, c.R, typ.Range)
		}
		if c.Demand > typ.Capacity {
			return fmt.Errorf("cover: customer %d demand %d exceeds antenna capacity %d", i, c.Demand, typ.Capacity)
		}
	}
	return nil
}

// Greedy covers the customers by repeatedly placing the antenna that serves
// the maximum remaining demand (best single window over the unserved set).
// For unit demands with ample capacity this is the classical greedy
// set-cover with its H_n guarantee; in general it is a heuristic. The
// number of placements never exceeds the customer count.
func Greedy(ctx context.Context, customers []model.Customer, typ AntennaType) (Result, error) {
	if err := feasibilityCheck(customers, typ); err != nil {
		return Result{}, err
	}
	res := Result{Algorithm: "greedy-cover"}
	// Wrap into an instance with one antenna; one engine's BestWindow does
	// the heavy lifting each round over the still-active customers.
	in := &model.Instance{
		Variant:   model.Sectors,
		Customers: append([]model.Customer(nil), customers...),
		Antennas:  []model.Antenna{{Rho: typ.Rho, Range: typ.Range, Capacity: typ.Capacity}},
	}
	if typ.Range <= 0 {
		in.Variant = model.Angles
	}
	in.Normalize()
	active := make([]bool, len(customers))
	remaining := len(customers)
	for i := range active {
		active[i] = true
	}
	eng := angular.NewEngine(in)
	for remaining > 0 {
		win, err := eng.BestWindow(ctx, 0, active, knapsack.Options{})
		if err != nil {
			return Result{}, err
		}
		if len(win.Customers) == 0 {
			return Result{}, fmt.Errorf("cover: no antenna placement serves any of the %d remaining customers", remaining)
		}
		res.Placements = append(res.Placements, Placement{Alpha: win.Alpha, Customers: win.Customers})
		for _, i := range win.Customers {
			active[i] = false
			remaining--
		}
	}
	return res, nil
}

// MaxExactCustomers bounds Exact's instance size (it leans on the packing
// exact solver, which is exponential).
const MaxExactCustomers = 12

// Exact finds the minimum antenna count by iterative deepening: for
// k = lower, lower+1, ... it asks the exact packing solver whether k
// antennas can serve the full demand. The lower bound is
// ⌈total demand / capacity⌉. maxK caps the search (0 means the customer
// count).
func Exact(ctx context.Context, customers []model.Customer, typ AntennaType, maxK int) (Result, error) {
	if err := feasibilityCheck(customers, typ); err != nil {
		return Result{}, err
	}
	if len(customers) > MaxExactCustomers {
		return Result{}, fmt.Errorf("cover: Exact limited to %d customers, got %d", MaxExactCustomers, len(customers))
	}
	res := Result{Algorithm: "exact-cover"}
	if len(customers) == 0 {
		return res, nil
	}
	if maxK <= 0 {
		maxK = len(customers)
	}
	var totalDemand, totalProfit int64
	for _, c := range customers {
		totalDemand += c.Demand
		totalProfit += c.Profit
	}
	lower := int((totalDemand + typ.Capacity - 1) / typ.Capacity)
	if lower < 1 {
		lower = 1
	}
	for k := lower; k <= maxK; k++ {
		in := &model.Instance{
			Variant:   model.Sectors,
			Customers: append([]model.Customer(nil), customers...),
		}
		if typ.Range <= 0 {
			in.Variant = model.Angles
		}
		for j := 0; j < k; j++ {
			in.Antennas = append(in.Antennas, model.Antenna{Rho: typ.Rho, Range: typ.Range, Capacity: typ.Capacity})
		}
		in.Normalize()
		sol, err := exact.Solve(ctx, in, exact.Limits{})
		if err != nil {
			return Result{}, fmt.Errorf("cover: packing feasibility at k=%d: %w", k, err)
		}
		if sol.Profit == in.TotalProfit() {
			for j := 0; j < k; j++ {
				pl := Placement{Alpha: sol.Assignment.Orientation[j]}
				for i, owner := range sol.Assignment.Owner {
					if owner == j {
						pl.Customers = append(pl.Customers, i)
					}
				}
				if len(pl.Customers) > 0 {
					res.Placements = append(res.Placements, pl)
				}
			}
			return res, nil
		}
	}
	return Result{}, fmt.Errorf("cover: no cover with at most %d antennas", maxK)
}
