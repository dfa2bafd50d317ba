package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestSectorContains(t *testing.T) {
	s := NewSector(0, math.Pi/2, 10)
	cases := []struct {
		p    Polar
		want bool
	}{
		{Polar{math.Pi / 4, 5}, true},
		{Polar{math.Pi / 4, 10}, true}, // boundary radius
		{Polar{math.Pi / 4, 10.1}, false},
		{Polar{math.Pi, 5}, false},    // wrong angle
		{Polar{0, 0}, true},           // origin angle boundary
		{Polar{math.Pi / 2, 3}, true}, // angular end boundary
	}
	for _, c := range cases {
		if got := s.Contains(c.p); got != c.want {
			t.Errorf("%v.Contains(%v) = %v, want %v", s, c.p, got, c.want)
		}
	}
}

func TestUnboundedSector(t *testing.T) {
	s := NewSector(1, 1, math.Inf(1))
	if !s.Contains(Polar{1.5, 1e12}) {
		t.Error("unbounded sector should contain arbitrarily distant points in its arc")
	}
	if s.Contains(Polar{4, 1}) {
		t.Error("unbounded sector still restricts angle")
	}
}

func TestNewSectorClamps(t *testing.T) {
	s := NewSector(-1, -1, -1)
	if s.Rho != 0 || s.Range != 0 {
		t.Errorf("clamping failed: %+v", s)
	}
	if s.Alpha < 0 || s.Alpha >= TwoPi {
		t.Errorf("alpha not normalized: %v", s.Alpha)
	}
}

// Property: rotating the sector and the point together preserves containment
// away from boundary-tolerance bands.
func TestSectorRotationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		s := NewSector(rng.Float64()*TwoPi, rng.Float64()*TwoPi, 1+rng.Float64()*10)
		p := Polar{rng.Float64() * TwoPi, rng.Float64() * 12}
		d := AngleDist(s.Alpha, p.Theta)
		if math.Abs(d-s.Rho) < 1e-6 || d < 1e-6 || TwoPi-d < 1e-6 || math.Abs(p.R-s.Range) < 1e-6 {
			continue
		}
		shift := rng.Float64() * TwoPi
		s2 := NewSector(s.Alpha+shift, s.Rho, s.Range)
		p2 := Polar{NormAngle(p.Theta + shift), p.R}
		if s.Contains(p) != s2.Contains(p2) {
			t.Fatalf("rotation changed containment: %v %v shift=%v", s, p, shift)
		}
	}
}

func TestSectorString(t *testing.T) {
	if s := NewSector(0, 1, math.Inf(1)).String(); s == "" {
		t.Error("String should be non-empty")
	}
	if s := NewSector(0, 1, 2).String(); s == "" {
		t.Error("String should be non-empty")
	}
}
