package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	//sectorlint:ignore floateq small-integer samples summarize to exact small integers
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("Summary = %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(2.5)) > 1e-12 {
		t.Errorf("Std = %v", s.Std)
	}
	//sectorlint:ignore floateq small-integer samples summarize to exact small integers
	if s.P25 != 2 || s.P75 != 4 {
		t.Errorf("quartiles = %v, %v", s.P25, s.P75)
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Error("empty sample should give zero summary")
	}
	s := Summarize([]float64{7})
	//sectorlint:ignore floateq a single-sample summary reproduces the sample exactly
	if s.Mean != 7 || s.Std != 0 || s.Median != 7 {
		t.Errorf("single-sample summary = %+v", s)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	sorted := []float64{0, 10}
	//sectorlint:ignore floateq the midpoint of {0, 10} interpolates to exactly 5
	if q := Quantile(sorted, 0.5); q != 5 {
		t.Errorf("median = %v, want 5", q)
	}
	if q := Quantile(sorted, 0); q != 0 {
		t.Errorf("q0 = %v", q)
	}
	//sectorlint:ignore floateq q=1 selects the exact max sample
	if q := Quantile(sorted, 1); q != 10 {
		t.Errorf("q1 = %v", q)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty quantile should be NaN")
	}
}

func TestBootstrapCIContainsMean(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = rng.NormFloat64() + 10
	}
	lo, hi := BootstrapCI(xs, 0.95, 500, 2)
	if !(lo < 10.2 && hi > 9.8 && lo < hi) {
		t.Errorf("CI [%v, %v] implausible for mean ~10", lo, hi)
	}
	lo, hi = BootstrapCI(nil, 0.95, 100, 1)
	if !math.IsNaN(lo) || !math.IsNaN(hi) {
		t.Error("empty CI should be NaN")
	}
}

func TestLinFitRecoversLine(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{3, 5, 7, 9} // y = 1 + 2x
	a, b, err := LinFit(xs, ys)
	if err != nil {
		t.Fatalf("LinFit: %v", err)
	}
	if math.Abs(a-1) > 1e-9 || math.Abs(b-2) > 1e-9 {
		t.Errorf("fit = (%v, %v), want (1, 2)", a, b)
	}
	if _, _, err := LinFit([]float64{1}, []float64{2}); err == nil {
		t.Error("short input must error")
	}
	if _, _, err := LinFit([]float64{2, 2}, []float64{1, 5}); err == nil {
		t.Error("degenerate x must error")
	}
}

func TestLogLogSlope(t *testing.T) {
	xs := []float64{10, 100, 1000}
	ys := make([]float64, 3)
	for i, x := range xs {
		ys[i] = 5 * x * x // exponent 2
	}
	k, err := LogLogSlope(xs, ys)
	if err != nil {
		t.Fatalf("LogLogSlope: %v", err)
	}
	if math.Abs(k-2) > 1e-9 {
		t.Errorf("slope = %v, want 2", k)
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{1, 4}); math.Abs(g-2) > 1e-12 {
		t.Errorf("GeoMean = %v, want 2", g)
	}
	if !math.IsNaN(GeoMean(nil)) || !math.IsNaN(GeoMean([]float64{1, -1})) {
		t.Error("invalid samples should give NaN")
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("T1: demo", "alg", "ratio")
	tb.AddRow("greedy", 0.93)
	tb.AddRow("exact", 1.0)
	tb.Caption = "caption"
	out := tb.Render()
	for _, want := range []string{"T1: demo", "alg", "greedy", "0.930", "1.000", "caption", "---"} {
		if !contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
}

func TestAsciiSeries(t *testing.T) {
	out := AsciiSeries("F1: demo", []float64{1, 2}, []float64{5, 10}, "x", "y", 20)
	if !contains(out, "F1: demo") || !contains(out, "█") {
		t.Errorf("series render:\n%s", out)
	}
	out = AsciiSeries("empty", nil, nil, "x", "y", 20)
	if !contains(out, "no data") {
		t.Errorf("empty series render:\n%s", out)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("t", "a", "b")
	tb.AddRow("plain", 1.5)
	tb.AddRow(`comma,and"quote`, 2.0)
	csv := tb.CSV()
	if !contains(csv, "a,b\n") {
		t.Errorf("missing header: %q", csv)
	}
	if !contains(csv, "plain,1.500") {
		t.Errorf("missing plain row: %q", csv)
	}
	if !contains(csv, `"comma,and""quote"`) {
		t.Errorf("quoting broken: %q", csv)
	}
}
