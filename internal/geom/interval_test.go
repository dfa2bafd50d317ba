package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewIntervalClamps(t *testing.T) {
	iv := NewInterval(-1, -2)
	if iv.Width != 0 {
		t.Errorf("negative width should clamp to 0, got %v", iv.Width)
	}
	if iv.Start < 0 || iv.Start >= TwoPi {
		t.Errorf("start not normalized: %v", iv.Start)
	}
	iv = NewInterval(0, 100)
	if iv.Width != TwoPi {
		t.Errorf("oversized width should clamp to 2π, got %v", iv.Width)
	}
}

func TestIntervalContains(t *testing.T) {
	iv := NewInterval(5.5, 2.0) // wraps through 0
	for _, theta := range []float64{5.5, 6.0, 0.2, NormAngle(5.5 + 2.0)} {
		if !iv.Contains(theta) {
			t.Errorf("%v should contain θ=%v", iv, theta)
		}
	}
	for _, theta := range []float64{2.0, 5.0, 4.0} {
		if iv.Contains(theta) {
			t.Errorf("%v should not contain θ=%v", iv, theta)
		}
	}
}

func TestIntervalEnd(t *testing.T) {
	iv := NewInterval(6.0, 1.0)
	if !almostEqual(iv.End(), NormAngle(7.0), 1e-12) {
		t.Errorf("End = %v, want %v", iv.End(), NormAngle(7.0))
	}
}

func TestInteriorsOverlap(t *testing.T) {
	a := NewInterval(0, 1)
	flush := NewInterval(1, 1)
	if a.InteriorsOverlap(flush) || flush.InteriorsOverlap(a) {
		t.Error("flush intervals have disjoint interiors")
	}
	overlapping := NewInterval(0.5, 1)
	if !a.InteriorsOverlap(overlapping) {
		t.Error("shifted interval overlaps interior")
	}
	point := NewInterval(0.5, 0)
	if a.InteriorsOverlap(point) || point.InteriorsOverlap(a) {
		t.Error("zero-width interval has empty interior")
	}
	full := Interval{Start: 0, Width: TwoPi}
	if !full.InteriorsOverlap(a) || !a.InteriorsOverlap(full) {
		t.Error("full circle interior overlaps any positive-width interval")
	}
	embedded := NewInterval(0.2, 0.3)
	if !a.InteriorsOverlap(embedded) {
		t.Error("embedded interval overlaps interior")
	}
	wrapA := NewInterval(6, 1) // wraps through 0
	if !wrapA.InteriorsOverlap(NewInterval(0.2, 1)) {
		t.Error("wrap-around interval overlaps a tail neighbor")
	}
	if wrapA.InteriorsOverlap(NewInterval(NormAngle(7), 1)) {
		t.Error("flush after wrap-around interval should not overlap")
	}
}

func TestDisjointAllowsFlushPartition(t *testing.T) {
	// Three sectors tiling the circle flush: interiors disjoint.
	w := TwoPi / 3
	ivs := []Interval{NewInterval(0, w), NewInterval(w, w), NewInterval(2*w, w)}
	if !Disjoint(ivs) {
		t.Error("flush partition of the circle should count as disjoint")
	}
}

func TestDisjointFamily(t *testing.T) {
	ivs := []Interval{NewInterval(0, 1), NewInterval(1.5, 1), NewInterval(3, 0.5)}
	if !Disjoint(ivs) {
		t.Error("family should be disjoint")
	}
	ivs = append(ivs, NewInterval(0.5, 0.2))
	if Disjoint(ivs) {
		t.Error("family with an embedded interval is not disjoint")
	}
}

// Property: containment is rotation-invariant — rotating both the interval
// and the probe angle by the same offset never changes the answer.
func TestContainsRotationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		start := rng.Float64() * TwoPi
		width := rng.Float64() * TwoPi
		theta := rng.Float64() * TwoPi
		shift := rng.Float64()*100 - 50
		iv := NewInterval(start, width)
		shifted := NewInterval(start+shift, width)
		// Avoid probing within the tolerance band of a boundary, where a
		// shifted representation may legitimately differ by one Eps.
		dFromStart := AngleDist(start, theta)
		if math.Abs(dFromStart-width) < 1e-6 || dFromStart < 1e-6 || TwoPi-dFromStart < 1e-6 {
			continue
		}
		if iv.Contains(theta) != shifted.Contains(NormAngle(theta+shift)) {
			t.Fatalf("rotation changed containment: iv=%v θ=%v shift=%v", iv, theta, shift)
		}
	}
}

// Property: an interval always contains its start, its midpoint and its end.
func TestContainsBoundaryProperty(t *testing.T) {
	f := func(start, width float64) bool {
		if math.IsNaN(start) || math.IsInf(start, 0) || math.IsNaN(width) || math.IsInf(width, 0) {
			return true
		}
		iv := NewInterval(start, math.Abs(math.Mod(width, TwoPi)))
		return iv.Contains(iv.Start) &&
			iv.Contains(NormAngle(iv.Start+iv.Width/2)) &&
			iv.Contains(iv.End())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Disjoint families never exceed a total width of 2π.
func TestDisjointWidthBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		n := 2 + rng.Intn(5)
		ivs := make([]Interval, n)
		for i := range ivs {
			ivs[i] = NewInterval(rng.Float64()*TwoPi, rng.Float64())
		}
		var width float64
		for _, iv := range ivs {
			width += iv.Width
		}
		if Disjoint(ivs) && width > TwoPi+1e-6 {
			t.Fatalf("disjoint family with total width %v > 2π: %v", width, ivs)
		}
	}
}
