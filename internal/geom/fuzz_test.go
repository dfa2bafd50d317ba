package geom

import (
	"math"
	"testing"
)

func FuzzNormAngle(f *testing.F) {
	for _, seed := range []float64{0, -1, 1, math.Pi, TwoPi, -TwoPi, 1e18, -1e18, 1e-300} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, theta float64) {
		if math.IsNaN(theta) || math.IsInf(theta, 0) {
			t.Skip()
		}
		got := NormAngle(theta)
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
