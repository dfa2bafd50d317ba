// Package model defines the sector-packing problem data types: customers,
// antennas, problem instances, and (partial) assignments, together with
// validation, feasibility checking, and JSON serialization.
//
// Demands, capacities, and profits are int64: every pseudo-polynomial
// algorithm in the repository (knapsack DPs, the disjoint-window DP)
// requires integer demands, and integer profits make optimality comparisons
// exact. Generators that draw real-valued demands scale and round them.
package model

import (
	"errors"
	"fmt"
	"math"

	"sectorpack/internal/geom"
)

// Customer is a demand point on the plane.
type Customer struct {
	ID     int     `json:"id"`
	Theta  float64 `json:"theta"`  // angular coordinate, radians in [0, 2π)
	R      float64 `json:"r"`      // distance from the base station
	Demand int64   `json:"demand"` // capacity consumed when served
	Profit int64   `json:"profit"` // objective value when served (defaults to Demand)
}

// Pos returns the customer's polar position.
func (c Customer) Pos() geom.Polar { return geom.Polar{Theta: c.Theta, R: c.R} }

// Antenna is a directional antenna the solver may orient freely.
//
// A zero angular width (Rho == 0) is legal and means a degenerate ray: the
// antenna serves only customers exactly aligned with its orientation
// (within geom.Eps tolerance, like every other containment test). All
// registered solvers honor this semantics — in the DisjointAngles variant a
// ray's empty-interior sector is exempt from disjointness.
type Antenna struct {
	ID       int     `json:"id"`
	Rho      float64 `json:"rho"`      // angular width, radians in [0, 2π]; 0 = degenerate ray
	Range    float64 `json:"range"`    // radial reach; +Inf (encoded as <= 0) means unbounded
	Capacity int64   `json:"capacity"` // total demand it can serve
	// MinRange is the near-field exclusion radius (annulus-sector
	// extension): customers closer than it cannot be served by this
	// antenna. Zero, the default, recovers the paper's plain sector.
	MinRange float64 `json:"min_range,omitempty"`
}

// Unbounded reports whether the antenna has unlimited radial reach.
func (a Antenna) Unbounded() bool { return math.IsInf(a.Range, 1) || a.Range <= 0 }

// EffRange returns the radial reach with the unbounded encoding resolved to
// +Inf.
func (a Antenna) EffRange() float64 {
	if a.Unbounded() {
		return math.Inf(1)
	}
	return a.Range
}

// Sector returns the antenna's footprint when oriented at alpha.
func (a Antenna) Sector(alpha float64) geom.Sector {
	s := geom.NewSector(alpha, a.Rho, a.EffRange())
	s.Inner = a.MinRange
	return s
}

// Covers reports whether the antenna, oriented at alpha, covers customer c.
func (a Antenna) Covers(alpha float64, c Customer) bool {
	return a.Sector(alpha).Contains(c.Pos())
}

// InRange reports whether the customer is radially reachable by the antenna
// under some orientation (the purely angular part is always satisfiable by
// rotating, unless Rho is zero and the customer is off-axis — orientation
// handles that too since the sector boundary can pass through the customer).
func (a Antenna) InRange(c Customer) bool {
	if a.MinRange > 0 && c.R < a.MinRange*(1-1e-12)-geom.Eps {
		return false
	}
	if a.Unbounded() {
		return true
	}
	return c.R <= a.Range*(1+1e-12)+geom.Eps
}

// RadialBounds returns the closed radius interval [lo, hi] of customers the
// antenna can reach, with exactly the tolerance slack InRange applies: for
// any customer with a non-NaN radius, InRange(c) == (lo <= c.R && c.R <= hi).
// An unbounded antenna yields hi = +Inf; a zero MinRange yields lo = -Inf.
// The columnar radial pre-filter (internal/cols) binary-searches its
// radius-sorted index against these bounds, so they MUST stay the literal
// mirror of InRange's comparisons — a test enforces the equivalence.
func (a Antenna) RadialBounds() (lo, hi float64) {
	lo, hi = math.Inf(-1), math.Inf(1)
	if a.MinRange > 0 {
		lo = a.MinRange*(1-1e-12) - geom.Eps
	}
	if !a.Unbounded() {
		hi = a.Range*(1+1e-12) + geom.Eps
	}
	return lo, hi
}

// Variant labels the problem variants from the paper.
type Variant int

const (
	// Sectors is the general problem: angular width and radial range both
	// constrain coverage.
	Sectors Variant = iota
	// Angles is the pure angular problem (all ranges unbounded).
	Angles
	// DisjointAngles additionally requires the chosen sectors to be
	// pairwise angularly disjoint.
	DisjointAngles
)

func (v Variant) String() string {
	switch v {
	case Sectors:
		return "sectors"
	case Angles:
		return "angles"
	case DisjointAngles:
		return "disjoint-angles"
	default:
		return fmt.Sprintf("variant(%d)", int(v))
	}
}

// Instance is a complete problem instance.
type Instance struct {
	Name      string     `json:"name,omitempty"`
	Variant   Variant    `json:"variant"`
	Customers []Customer `json:"customers"`
	Antennas  []Antenna  `json:"antennas"`
}

// N returns the number of customers.
func (in *Instance) N() int { return len(in.Customers) }

// M returns the number of antennas.
func (in *Instance) M() int { return len(in.Antennas) }

// TotalDemand sums all customer demands.
func (in *Instance) TotalDemand() int64 {
	var s int64
	for _, c := range in.Customers {
		s += c.Demand
	}
	return s
}

// TotalProfit sums all customer profits (an upper bound on any objective).
func (in *Instance) TotalProfit() int64 {
	var s int64
	for _, c := range in.Customers {
		s += c.Profit
	}
	return s
}

// TotalCapacity sums all antenna capacities.
func (in *Instance) TotalCapacity() int64 {
	var s int64
	for _, a := range in.Antennas {
		s += a.Capacity
	}
	return s
}

// Tightness is the ratio of total demand to total capacity: > 1 means the
// antennas cannot possibly serve everyone.
func (in *Instance) Tightness() float64 {
	cap := in.TotalCapacity()
	if cap == 0 {
		return math.Inf(1)
	}
	return float64(in.TotalDemand()) / float64(cap)
}

// UnitDemand reports whether every customer has the same demand and profit
// (the UNIT variant precondition for the flow-based exact solver).
func (in *Instance) UnitDemand() bool {
	if len(in.Customers) == 0 {
		return true
	}
	d, p := in.Customers[0].Demand, in.Customers[0].Profit
	for _, c := range in.Customers {
		if c.Demand != d || c.Profit != p {
			return false
		}
	}
	return true
}

// Validate checks structural well-formedness: normalized angles,
// non-negative radii, positive demands, IDs equal to slice positions (the
// solvers index by position and report by ID; keeping them equal removes a
// whole class of bookkeeping bugs), and widths within [0, 2π].
func (in *Instance) Validate() error {
	var errs []error
	for i, c := range in.Customers {
		if c.ID != i {
			errs = append(errs, fmt.Errorf("customer %d: ID %d must equal slice index", i, c.ID))
		}
		if c.Theta < 0 || c.Theta >= geom.TwoPi || math.IsNaN(c.Theta) {
			errs = append(errs, fmt.Errorf("customer %d: theta %v outside [0, 2π)", i, c.Theta))
		}
		if c.R < 0 || math.IsNaN(c.R) || math.IsInf(c.R, 0) {
			errs = append(errs, fmt.Errorf("customer %d: invalid radius %v", i, c.R))
		}
		if c.Demand <= 0 {
			errs = append(errs, fmt.Errorf("customer %d: demand %d must be positive", i, c.Demand))
		}
		if c.Profit < 0 {
			errs = append(errs, fmt.Errorf("customer %d: profit %d must be non-negative", i, c.Profit))
		}
	}
	for j, a := range in.Antennas {
		if a.ID != j {
			errs = append(errs, fmt.Errorf("antenna %d: ID %d must equal slice index", j, a.ID))
		}
		if a.Rho < 0 || a.Rho > geom.TwoPi || math.IsNaN(a.Rho) {
			errs = append(errs, fmt.Errorf("antenna %d: width %v outside [0, 2π]", j, a.Rho))
		}
		if a.Capacity < 0 {
			errs = append(errs, fmt.Errorf("antenna %d: capacity %d must be non-negative", j, a.Capacity))
		}
		if math.IsNaN(a.Range) {
			errs = append(errs, fmt.Errorf("antenna %d: range is NaN", j))
		}
		if a.MinRange < 0 || math.IsNaN(a.MinRange) {
			errs = append(errs, fmt.Errorf("antenna %d: invalid min range %v", j, a.MinRange))
		}
		if a.MinRange > 0 && !a.Unbounded() && a.MinRange > a.Range {
			errs = append(errs, fmt.Errorf("antenna %d: min range %v exceeds range %v", j, a.MinRange, a.Range))
		}
	}
	if in.Variant == Angles || in.Variant == DisjointAngles {
		for j, a := range in.Antennas {
			if !a.Unbounded() {
				errs = append(errs, fmt.Errorf("antenna %d: variant %v requires unbounded range, got %v", j, in.Variant, a.Range))
			}
		}
	}
	if in.Variant == DisjointAngles {
		var w float64
		for _, a := range in.Antennas {
			w += a.Rho
		}
		if w > geom.TwoPi+geom.Eps {
			errs = append(errs, fmt.Errorf("variant %v: total width %v exceeds 2π, no disjoint orientation exists", in.Variant, w))
		}
	}
	return errors.Join(errs...)
}

// Clone returns a deep copy of the instance.
func (in *Instance) Clone() *Instance {
	out := &Instance{Name: in.Name, Variant: in.Variant}
	out.Customers = append([]Customer(nil), in.Customers...)
	out.Antennas = append([]Antenna(nil), in.Antennas...)
	return out
}

// normalize puts c in the form Normalize leaves it in at position id.
func normalize(c *Customer, id int) {
	c.ID = id
	c.Theta = geom.NormAngle(c.Theta)
	if c.Profit == 0 {
		c.Profit = c.Demand
	}
}

// Normalize fills default profits (Profit = Demand where Profit is zero)
// and renumbers IDs to slice positions. It returns the receiver for
// chaining.
func (in *Instance) Normalize() *Instance {
	for i := range in.Customers {
		normalize(&in.Customers[i], i)
	}
	for j := range in.Antennas {
		in.Antennas[j].ID = j
	}
	return in
}
