package geom

import (
	"math"
	"testing"
)

// normAngleEdges are the inputs where NormAngle's branches meet, with the
// result normAngleMod gives: the signed zeros, the ±2π ends, the first
// angle inside −2π, a negative angle so small that θ + 2π rounds to 2π,
// −π and a negative subnormal.
var normAngleEdges = []struct {
	in, want float64
}{
	{0, 0},
	{math.Copysign(0, -1), math.Copysign(0, -1)},
	{TwoPi, 0},
	{-TwoPi, math.Copysign(0, -1)}, // math.Mod keeps the dividend's sign
	{math.Nextafter(-TwoPi, 0), TwoPi + math.Nextafter(-TwoPi, 0)},
	{-1e-17, 0}, // θ + 2π rounds to 2π and folds to 0
	{-math.Pi, math.Pi},
	{-math.SmallestNonzeroFloat64, 0},
}

func FuzzNormAngle(f *testing.F) {
	for _, seed := range []float64{0, -1, 1, math.Pi, TwoPi, -TwoPi, 1e18, -1e18, 1e-300} {
		f.Add(seed)
	}
	for _, e := range normAngleEdges {
		f.Add(e.in)
	}
	f.Fuzz(func(t *testing.T, theta float64) {
		if math.IsNaN(theta) || math.IsInf(theta, 0) {
			t.Skip()
		}
		got := NormAngle(theta)
		if want := normAngleMod(theta); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("NormAngle(%v) = %v, normAngleMod gives %v", theta, got, want)
		}
		if math.IsNaN(got) {
			t.Fatalf("NormAngle(%v) = NaN", theta)
		}
		if got < 0 || got >= TwoPi {
			t.Fatalf("NormAngle(%v) = %v outside [0, 2π)", theta, got)
		}
		if NormAngle(got) != got {
			t.Fatalf("NormAngle not idempotent at %v", theta)
		}
	})
}

func FuzzAngleBetween(f *testing.F) {
	f.Add(0.5, 0.0, 1.0)
	f.Add(0.1, 6.0, 1.0)
	f.Add(3.0, 0.0, TwoPi)
	f.Fuzz(func(t *testing.T, theta, start, width float64) {
		for _, v := range []float64{theta, start, width} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e9 {
				t.Skip()
			}
		}
		if width < 0 {
			width = -width
		}
		if width > TwoPi {
			width = TwoPi
		}
		got := AngleBetween(theta, start, width)
		// Rotation invariance away from tolerance bands.
		d := AngleDist(start, theta)
		if math.Abs(d-width) < 1e-6 || d < 1e-6 || TwoPi-d < 1e-6 {
			t.Skip()
		}
		const shift = 1.2345
		if AngleBetween(theta+shift, start+shift, width) != got {
			t.Fatalf("rotation changed containment: θ=%v start=%v width=%v", theta, start, width)
		}
	})
}

func FuzzIntervalOverlapSymmetry(f *testing.F) {
	f.Add(0.0, 1.0, 0.5, 1.0)
	f.Add(6.0, 1.0, 0.2, 1.0)
	f.Fuzz(func(t *testing.T, s1, w1, s2, w2 float64) {
		for _, v := range []float64{s1, w1, s2, w2} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e9 {
				t.Skip()
			}
		}
		a := NewInterval(s1, math.Abs(math.Mod(w1, TwoPi)))
		b := NewInterval(s2, math.Abs(math.Mod(w2, TwoPi)))
		if a.InteriorsOverlap(b) != b.InteriorsOverlap(a) {
			t.Fatalf("InteriorsOverlap asymmetric: %v vs %v", a, b)
		}
	})
}
