package geom

import "fmt"

// Interval is a circular (wrap-around) angular interval: the clockwise arc
// that starts at Start and spans Width radians. Start is kept normalized to
// [0, 2π); Width lies in [0, 2π]. The zero value is the degenerate single
// angle {0}.
type Interval struct {
	Start float64
	Width float64
}

// NewInterval builds a normalized interval. Widths outside [0, 2π] are
// clamped: negative widths collapse to 0 and widths beyond a full turn
// saturate at 2π (a full-circle interval).
func NewInterval(start, width float64) Interval {
	if width < 0 {
		width = 0
	}
	if width > TwoPi {
		width = TwoPi
	}
	return Interval{Start: NormAngle(start), Width: width}
}

// End returns the normalized end angle of the interval (Start + Width).
func (iv Interval) End() float64 { return NormAngle(iv.Start + iv.Width) }

// Contains reports whether angle theta lies inside the interval, with Eps
// tolerance at both boundaries.
func (iv Interval) Contains(theta float64) bool {
	return AngleBetween(theta, iv.Start, iv.Width)
}

// InteriorsOverlap reports whether the open interiors of the two intervals
// intersect. Flush intervals (one starting exactly where the other ends)
// have disjoint interiors, which is the disjointness notion the
// DisjointAngles variant uses: optimal packings routinely place sectors
// flush against each other. Zero-width intervals have empty interiors.
func (iv Interval) InteriorsOverlap(other Interval) bool {
	if iv.Width <= Eps || other.Width <= Eps {
		return false
	}
	// Disjoint interiors iff other starts at or after iv's end (clockwise)
	// AND iv starts at or after other's end.
	gapA := AngleDist(iv.Start, other.Start) // clockwise iv.Start → other.Start
	gapB := AngleDist(other.Start, iv.Start)
	return !(gapA >= iv.Width-Eps && gapB >= other.Width-Eps)
}

// String renders the interval in degrees for diagnostics.
func (iv Interval) String() string {
	return fmt.Sprintf("[%.2f°+%.2f°]", Degrees(iv.Start), Degrees(iv.Width))
}

// Disjoint reports whether every pair of intervals in the slice has
// disjoint interiors (boundary touching is allowed; see InteriorsOverlap).
func Disjoint(ivs []Interval) bool {
	for i := range ivs {
		for j := i + 1; j < len(ivs); j++ {
			if ivs[i].InteriorsOverlap(ivs[j]) {
				return false
			}
		}
	}
	return true
}
