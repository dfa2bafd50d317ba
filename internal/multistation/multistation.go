// Package multistation extends sector packing to several base stations at
// distinct planar positions, each carrying its own directional antennas.
// Customers live in Cartesian coordinates; a station's antenna covers a
// customer according to the customer's polar position *relative to that
// station*. Each customer may be served by at most one antenna across all
// stations.
//
// This is the deployment-scale generalization the paper's single-tower
// model points at [reconstruction: multi-tower planning is the obvious
// next question and exercises the same machinery]. The solver reduces each
// (station, antenna) pair to a single-station best-window search on the
// station-relative view of the remaining customers, processed greedily in
// decreasing capacity order — the direct analogue of core.SolveGreedy with
// the same successive-knapsack flavor.
package multistation

import (
	"context"
	"fmt"
	"sort"

	"sectorpack/internal/angular"
	"sectorpack/internal/geom"
	"sectorpack/internal/knapsack"
	"sectorpack/internal/model"
)

// Customer is a demand point in Cartesian coordinates.
type Customer struct {
	ID     int
	Pos    geom.XY
	Demand int64
	Profit int64
}

// Station is a base station somewhere on the plane with its antennas.
type Station struct {
	Pos      geom.XY
	Antennas []model.Antenna
}

// Instance is a multi-station problem.
type Instance struct {
	Name      string
	Customers []Customer
	Stations  []Station
}

// Normalize fills defaults (profit = demand) and renumbers IDs.
func (in *Instance) Normalize() *Instance {
	for i := range in.Customers {
		in.Customers[i].ID = i
		if in.Customers[i].Profit == 0 {
			in.Customers[i].Profit = in.Customers[i].Demand
		}
	}
	return in
}

// Validate checks structural well-formedness.
func (in *Instance) Validate() error {
	for i, c := range in.Customers {
		if c.ID != i {
			return fmt.Errorf("multistation: customer %d has ID %d", i, c.ID)
		}
		if c.Demand <= 0 {
			return fmt.Errorf("multistation: customer %d demand %d", i, c.Demand)
		}
		if c.Profit < 0 {
			return fmt.Errorf("multistation: customer %d profit %d", i, c.Profit)
		}
	}
	for s, st := range in.Stations {
		for j, a := range st.Antennas {
			if a.Rho < 0 || a.Rho > geom.TwoPi {
				return fmt.Errorf("multistation: station %d antenna %d width %v", s, j, a.Rho)
			}
			if a.Capacity < 0 {
				return fmt.Errorf("multistation: station %d antenna %d capacity %d", s, j, a.Capacity)
			}
		}
	}
	return nil
}

// N returns the customer count.
func (in *Instance) N() int { return len(in.Customers) }

// TotalProfit sums all customer profits.
func (in *Instance) TotalProfit() int64 {
	var p int64
	for _, c := range in.Customers {
		p += c.Profit
	}
	return p
}

// relativeView builds the single-station model.Instance of one station:
// customers re-expressed in that station's polar frame. keep[i] maps the
// view's customer index back to the multi-station index.
func (in *Instance) relativeView(s int) (*model.Instance, []int) {
	st := in.Stations[s]
	view := &model.Instance{Variant: model.Sectors, Name: fmt.Sprintf("%s-station%d", in.Name, s)}
	keep := make([]int, 0, len(in.Customers))
	for i, c := range in.Customers {
		p := geom.FromXY(geom.XY{X: c.Pos.X - st.Pos.X, Y: c.Pos.Y - st.Pos.Y})
		view.Customers = append(view.Customers, model.Customer{
			Theta: p.Theta, R: p.R, Demand: c.Demand, Profit: c.Profit,
		})
		keep = append(keep, i)
	}
	view.Antennas = append(view.Antennas, st.Antennas...)
	view.Normalize()
	return view, keep
}

// Assignment is a multi-station solution.
type Assignment struct {
	// Orientation[s][j] is the start angle of station s's antenna j.
	Orientation [][]float64
	// OwnerStation[i] / OwnerAntenna[i] identify the serving pair, or -1.
	OwnerStation []int
	OwnerAntenna []int
}

// Profit returns the served profit.
func (as *Assignment) Profit(in *Instance) int64 {
	var p int64
	for i, s := range as.OwnerStation {
		if s >= 0 {
			p += in.Customers[i].Profit
		}
	}
	return p
}

// Check verifies feasibility: coverage in the serving station's frame and
// per-antenna capacity.
func (as *Assignment) Check(in *Instance) error {
	if len(as.OwnerStation) != in.N() || len(as.OwnerAntenna) != in.N() {
		return fmt.Errorf("multistation: owner slices cover %d/%d customers", len(as.OwnerStation), in.N())
	}
	if len(as.Orientation) != len(in.Stations) {
		return fmt.Errorf("multistation: %d orientation rows for %d stations", len(as.Orientation), len(in.Stations))
	}
	type key struct{ s, j int }
	load := map[key]int64{}
	for i := range in.Customers {
		s, j := as.OwnerStation[i], as.OwnerAntenna[i]
		if s == -1 && j == -1 {
			continue
		}
		if s < 0 || s >= len(in.Stations) || j < 0 || j >= len(in.Stations[s].Antennas) {
			return fmt.Errorf("multistation: customer %d assigned to unknown pair (%d,%d)", i, s, j)
		}
		st := in.Stations[s]
		rel := geom.FromXY(geom.XY{X: in.Customers[i].Pos.X - st.Pos.X, Y: in.Customers[i].Pos.Y - st.Pos.Y})
		cust := model.Customer{Theta: rel.Theta, R: rel.R, Demand: in.Customers[i].Demand}
		if !st.Antennas[j].Covers(as.Orientation[s][j], cust) {
			return fmt.Errorf("multistation: customer %d not covered by station %d antenna %d", i, s, j)
		}
		load[key{s, j}] += in.Customers[i].Demand
	}
	for k, l := range load {
		if l > in.Stations[k.s].Antennas[k.j].Capacity {
			return fmt.Errorf("multistation: station %d antenna %d overloaded %d", k.s, k.j, l)
		}
	}
	return nil
}

// SolveGreedy runs the successive best-window greedy over all
// (station, antenna) pairs in decreasing capacity order.
func SolveGreedy(ctx context.Context, in *Instance, kopt knapsack.Options) (*Assignment, int64, error) {
	if err := in.Validate(); err != nil {
		return nil, 0, err
	}
	n := in.N()
	as := &Assignment{
		Orientation:  make([][]float64, len(in.Stations)),
		OwnerStation: make([]int, n),
		OwnerAntenna: make([]int, n),
	}
	for i := 0; i < n; i++ {
		as.OwnerStation[i] = -1
		as.OwnerAntenna[i] = -1
	}
	type pair struct{ s, j int }
	var pairs []pair
	for s, st := range in.Stations {
		as.Orientation[s] = make([]float64, len(st.Antennas))
		for j := range st.Antennas {
			pairs = append(pairs, pair{s, j})
		}
	}
	sort.SliceStable(pairs, func(a, b int) bool {
		return in.Stations[pairs[a].s].Antennas[pairs[a].j].Capacity >
			in.Stations[pairs[b].s].Antennas[pairs[b].j].Capacity
	})

	active := make([]bool, n)
	for i := range active {
		active[i] = true
	}
	var total int64
	for _, pr := range pairs {
		view, keep := in.relativeView(pr.s)
		// Mask the view to the still-unserved customers.
		viewActive := make([]bool, len(keep))
		for v, i := range keep {
			viewActive[v] = active[i]
		}
		win, err := angular.NewEngine(view).BestWindow(ctx, pr.j, viewActive, kopt)
		if err != nil {
			return nil, 0, err
		}
		if len(win.Customers) == 0 {
			continue
		}
		as.Orientation[pr.s][pr.j] = win.Alpha
		for _, v := range win.Customers {
			i := keep[v]
			as.OwnerStation[i] = pr.s
			as.OwnerAntenna[i] = pr.j
			active[i] = false
		}
		total += win.Profit
	}
	return as, total, nil
}
