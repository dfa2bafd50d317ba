package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNormAngleCanonicalRange(t *testing.T) {
	cases := []struct {
		in   float64
		want float64
	}{
		{0, 0},
		{math.Pi, math.Pi},
		{TwoPi, 0},
		{-math.Pi / 2, 3 * math.Pi / 2},
		{5 * TwoPi, 0},
		{-7 * TwoPi, 0},
		{TwoPi + 0.25, 0.25},
		{-0.25, TwoPi - 0.25},
	}
	for _, c := range cases {
		got := NormAngle(c.in)
		if !almostEqual(got, c.want, 1e-12) {
			t.Errorf("NormAngle(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestNormAngleEdgesMatchMod(t *testing.T) {
	for _, e := range normAngleEdges {
		got, ref := NormAngle(e.in), normAngleMod(e.in)
		if math.Float64bits(got) != math.Float64bits(ref) {
			t.Errorf("NormAngle(%v) = %v, normAngleMod gives %v", e.in, got, ref)
		}
		if math.Float64bits(got) != math.Float64bits(e.want) {
			t.Errorf("NormAngle(%v) = %v, want %v", e.in, got, e.want)
		}
	}
}

func TestNormAngleRangeProperty(t *testing.T) {
	f := func(theta float64) bool {
		if math.IsNaN(theta) || math.IsInf(theta, 0) {
			return true
		}
		got := NormAngle(theta)
		return got >= 0 && got < TwoPi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormAngleIdempotent(t *testing.T) {
	f := func(theta float64) bool {
		if math.IsNaN(theta) || math.IsInf(theta, 0) {
			return true
		}
		once := NormAngle(theta)
		return NormAngle(once) == once
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAngleDist(t *testing.T) {
	cases := []struct {
		from, to, want float64
	}{
		{0, math.Pi / 2, math.Pi / 2},
		{math.Pi / 2, 0, 3 * math.Pi / 2},
		{3, 3, 0},
		{6, 0.5, TwoPi - 6 + 0.5},
	}
	for _, c := range cases {
		got := AngleDist(c.from, c.to)
		if !almostEqual(got, c.want, 1e-12) {
			t.Errorf("AngleDist(%v,%v) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
}

func TestAngleDistRoundTrip(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) {
			return true
		}
		a, b = NormAngle(a), NormAngle(b)
		d := AngleDist(a, b)
		return almostEqual(NormAngle(a+d), b, 1e-9) || almostEqual(math.Abs(NormAngle(a+d)-b), TwoPi, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAngleBetween(t *testing.T) {
	if !AngleBetween(0.5, 0, 1) {
		t.Error("0.5 should lie in [0,1]")
	}
	if AngleBetween(1.5, 0, 1) {
		t.Error("1.5 should not lie in [0,1]")
	}
	// wrap-around arc
	if !AngleBetween(0.1, 6.0, 1.0) {
		t.Error("0.1 should lie in the wrap-around arc starting at 6.0")
	}
	if AngleBetween(3.0, 6.0, 1.0) {
		t.Error("3.0 should not lie in the wrap-around arc starting at 6.0")
	}
	// boundary tolerance
	if !AngleBetween(1.0, 0, 1.0) {
		t.Error("end boundary should count as inside")
	}
	if !AngleBetween(0, 0, 1.0) {
		t.Error("start boundary should count as inside")
	}
	// full circle covers everything
	if !AngleBetween(2.3, 4.5, TwoPi) {
		t.Error("full-width arc must contain every angle")
	}
}

func TestAngleBetweenStartBoundaryFromBelow(t *testing.T) {
	// An angle an ulp before the start should still count via the 2π-d
	// fallback branch.
	start := 1.0
	theta := math.Nextafter(start, 0)
	if !AngleBetween(theta, start, 0.5) {
		t.Error("angle one ulp before start should be inside (tolerance)")
	}
}

func TestDegreesRadiansRoundTrip(t *testing.T) {
	f := func(deg float64) bool {
		if math.IsNaN(deg) || math.Abs(deg) > 1e12 {
			return true
		}
		return almostEqual(Degrees(deg*math.Pi/180), deg, math.Abs(deg)*1e-12+1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
