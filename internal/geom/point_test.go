package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestPolarXYRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		p := Polar{rng.Float64() * TwoPi, rng.Float64() * 100}
		q := FromXY(XY{X: p.R * math.Cos(p.Theta), Y: p.R * math.Sin(p.Theta)})
		if !almostEqual(q.R, p.R, 1e-9*(1+p.R)) {
			t.Fatalf("radius round trip: %v -> %v", p, q)
		}
		if p.R > 1e-9 {
			d := math.Min(AngleDist(p.Theta, q.Theta), AngleDist(q.Theta, p.Theta))
			if d > 1e-9 {
				t.Fatalf("angle round trip: %v -> %v (d=%v)", p, q, d)
			}
		}
	}
}

func TestFromXYOrigin(t *testing.T) {
	p := FromXY(XY{0, 0})
	if p.R != 0 || p.Theta != 0 {
		t.Errorf("origin should map to zero polar, got %v", p)
	}
}
