// Package geom provides the planar and circular geometry primitives that
// underpin sector packing: normalized angles, circular (wrap-around)
// intervals, polar points, and antenna sectors.
//
// All angles are expressed in radians and normalized to the half-open range
// [0, 2π). Because sector boundaries are typically aligned exactly with
// customer angles (the candidate-orientation lemma), containment tests use a
// small absolute tolerance Eps so that boundary customers count as covered
// regardless of floating-point rounding.
package geom

import "math"

// TwoPi is the full circle in radians.
const TwoPi = 2 * math.Pi

// Eps is the absolute tolerance used by angular containment tests. It is
// large enough to absorb the rounding of a handful of float64 operations on
// angles, and far smaller than any meaningful angular separation between
// distinct customers in generated workloads.
const Eps = 1e-9

// NormAngle maps an arbitrary angle in radians to the canonical range
// [0, 2π). NaN is returned unchanged; ±Inf normalize to NaN, matching
// math.Mod semantics.
func NormAngle(theta float64) float64 {
	if 0 <= theta && theta < TwoPi {
		return theta // math.Mod returns an angle already in range unchanged
	}
	return normAngleOut(theta)
}

// normAngleOut is NormAngle outside [0, 2π), kept out of line so the range
// check inlines into callers. The difference of two normalized angles lies
// in (−2π, 2π), so every negative AngleDist takes the first branch: on
// (−2π, 0) math.Mod returns θ unchanged, and the branch is normAngleMod's
// arithmetic without the math.Mod call, bit for bit. NaN, ±Inf and
// |θ| ≥ 2π take normAngleMod.
func normAngleOut(theta float64) float64 {
	if -TwoPi < theta && theta < 0 {
		if t := theta + TwoPi; t < TwoPi {
			return t
		}
		return 0 // θ + 2π rounded up to 2π, which normAngleMod folds to 0
	}
	return normAngleMod(theta)
}

// normAngleMod is NormAngle's general case and the reference the fuzz
// test holds normAngleOut to.
func normAngleMod(theta float64) float64 {
	t := math.Mod(theta, TwoPi)
	if t < 0 {
		t += TwoPi
	}
	// math.Mod can return exactly TwoPi-ulp inputs as TwoPi after the
	// correction above when theta is a tiny negative number; fold it back.
	if t >= TwoPi {
		t -= TwoPi
	}
	return t
}

// AngleDist returns the clockwise distance from angle a to angle b, i.e. the
// unique value d in [0, 2π) with NormAngle(a+d) == NormAngle(b) up to
// floating-point rounding. It is the primitive on which circular interval
// containment is built.
func AngleDist(from, to float64) float64 {
	return NormAngle(to - from)
}

// WrapGap returns the angular gap stepping clockwise from angle `from`
// across the 2π seam to angle `to`, computed as exactly (2π − from) + to
// with no normalization. For normalized inputs it agrees with
// AngleDist(from, to) up to floating-point rounding, but callers that
// compare the gap against Eps use this form so the seam test is the same
// spelling everywhere (sweep candidate dedup, constrained-greedy end
// dedup) rather than per-site hand-rolled arithmetic.
func WrapGap(from, to float64) float64 {
	return TwoPi - from + to
}

// AnglesClose reports whether two normalized angles coincide within Eps,
// treating the 2π seam correctly: an angle just below 2π is close to one
// just above 0. It is the canonical "same candidate orientation" test.
func AnglesClose(a, b float64) bool {
	d := AngleDist(a, b)
	return d <= Eps || TwoPi-d <= Eps
}

// AngleBetween reports whether the angle theta lies on the clockwise arc
// from start spanning width radians, with Eps tolerance on both ends.
// Width must be in [0, 2π]; a width of 2π (or more) covers every angle.
func AngleBetween(theta, start, width float64) bool {
	if width >= TwoPi-Eps {
		return true
	}
	d := AngleDist(start, theta)
	if d <= width+Eps {
		return true
	}
	// theta may sit just *before* start due to rounding (d ≈ 2π).
	return TwoPi-d <= Eps
}

// Degrees converts radians to degrees; handy for human-readable output.
func Degrees(rad float64) float64 { return rad * 180 / math.Pi }
