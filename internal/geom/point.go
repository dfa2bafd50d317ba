package geom

import (
	"fmt"
	"math"
)

// Polar is a point in polar coordinates around the base station at the
// origin: Theta is the angular coordinate in [0, 2π), R the distance.
type Polar struct {
	Theta float64
	R     float64
}

// XY is a point in Cartesian coordinates.
type XY struct {
	X float64
	Y float64
}

// FromXY converts Cartesian to polar coordinates. The origin maps to
// Polar{0, 0}.
func FromXY(pt XY) Polar {
	r := math.Hypot(pt.X, pt.Y)
	if r == 0 {
		return Polar{}
	}
	return Polar{Theta: NormAngle(math.Atan2(pt.Y, pt.X)), R: r}
}

func (p Polar) String() string {
	return fmt.Sprintf("(θ=%.3f, r=%.3f)", p.Theta, p.R)
}
