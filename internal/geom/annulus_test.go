package geom

import (
	"math"
	"testing"
)

func TestAnnulusSectorContains(t *testing.T) {
	s := Sector{Alpha: 0, Rho: 1, Range: 8, Inner: 2}
	cases := []struct {
		p    Polar
		want bool
	}{
		{Polar{0.5, 5}, true},
		{Polar{0.5, 2}, true},  // inner boundary counts
		{Polar{0.5, 8}, true},  // outer boundary counts
		{Polar{0.5, 1}, false}, // inside the dead zone
		{Polar{0.5, 9}, false}, // beyond reach
		{Polar{2.0, 5}, false}, // wrong angle
	}
	for _, c := range cases {
		if got := s.Contains(c.p); got != c.want {
			t.Errorf("%v.Contains(%v) = %v, want %v", s, c.p, got, c.want)
		}
	}
}

func TestUnboundedAnnulus(t *testing.T) {
	s := Sector{Alpha: 0, Rho: 1, Range: math.Inf(1), Inner: 3}
	if s.Contains(Polar{0.5, 2}) {
		t.Error("dead zone applies even with unbounded outer range")
	}
	if !s.Contains(Polar{0.5, 1e9}) {
		t.Error("unbounded outer range should admit distant points")
	}
}
