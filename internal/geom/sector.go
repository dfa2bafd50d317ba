package geom

import (
	"fmt"
	"math"
)

// Sector is a directional-antenna footprint: the set of points whose
// angular coordinate lies on the clockwise arc [Alpha, Alpha+Rho] and whose
// radius is at most Range. Range = +Inf expresses a pure angular sector
// (the ANGLES variant).
type Sector struct {
	Alpha float64 // orientation: start angle of the arc, normalized to [0, 2π)
	Rho   float64 // angular width in [0, 2π]
	Range float64 // radial reach; math.Inf(1) for unbounded
	// Inner is the near-field exclusion radius: points closer than Inner
	// are outside the footprint (an annulus sector). Zero (the default)
	// recovers the plain sector of the paper.
	Inner float64
}

// NewSector builds a normalized sector. Negative widths collapse to zero,
// widths above 2π saturate; a negative range collapses to zero (an empty
// footprint apart from the origin).
func NewSector(alpha, rho, rng float64) Sector {
	iv := NewInterval(alpha, rho)
	if rng < 0 {
		rng = 0
	}
	return Sector{Alpha: iv.Start, Rho: iv.Width, Range: rng}
}

// Interval returns the sector's angular footprint.
func (s Sector) Interval() Interval { return Interval{Start: s.Alpha, Width: s.Rho} }

// Contains reports whether the polar point lies inside the sector. The
// radial tests use a relative tolerance so points generated exactly at a
// boundary radius count as covered.
func (s Sector) Contains(p Polar) bool {
	if !math.IsInf(s.Range, 1) {
		if p.R > s.Range*(1+1e-12)+Eps {
			return false
		}
	}
	if s.Inner > 0 && p.R < s.Inner*(1-1e-12)-Eps {
		return false
	}
	return AngleBetween(p.Theta, s.Alpha, s.Rho)
}

func (s Sector) String() string {
	if math.IsInf(s.Range, 1) {
		return fmt.Sprintf("sector(α=%.2f°, ρ=%.2f°, R=∞)", Degrees(s.Alpha), Degrees(s.Rho))
	}
	return fmt.Sprintf("sector(α=%.2f°, ρ=%.2f°, R=%.2f)", Degrees(s.Alpha), Degrees(s.Rho), s.Range)
}
