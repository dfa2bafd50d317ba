package angular

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"sectorpack/internal/gen"
	"sectorpack/internal/geom"
	"sectorpack/internal/knapsack"
	"sectorpack/internal/model"
)

// scanCandidates is the scan reference of Engine.Candidates: the angles of
// every customer radially within the antenna's reach, sorted ascending and
// deduplicated within geom.Eps.
func scanCandidates(in *model.Instance, antenna int) []float64 {
	a := in.Antennas[antenna]
	out := make([]float64, 0, in.N())
	for _, c := range in.Customers {
		if a.InRange(c) {
			out = append(out, c.Theta)
		}
	}
	sort.Float64s(out)
	return dedupAngles(out)
}

// scanCovered is the scan reference of Engine.AppendMembers: the indices
// of the active customers (active == nil: all) that the antenna covers at
// alpha, from one Covers test per customer, in ascending index.
func scanCovered(in *model.Instance, antenna int, alpha float64, active []bool) []int {
	a := in.Antennas[antenna]
	var out []int
	for i, c := range in.Customers {
		if active != nil && !active[i] {
			continue
		}
		if a.Covers(alpha, c) {
			out = append(out, i)
		}
	}
	return out
}

// scanWindowItems converts scanCovered's customers into knapsack items,
// returning the items and the parallel customer indices.
func scanWindowItems(in *model.Instance, antenna int, alpha float64, active []bool) ([]knapsack.Item, []int) {
	ids := scanCovered(in, antenna, alpha, active)
	items := make([]knapsack.Item, len(ids))
	for k, i := range ids {
		items[k] = knapsack.Item{Weight: in.Customers[i].Demand, Profit: in.Customers[i].Profit}
	}
	return items, ids
}

// checkEngineMatchesScan compares every antenna's engine candidates with
// scanCandidates bit for bit, and the engine's members with scanCovered in
// index order, at every stride-th candidate angle and the end of a sector
// placed there, and at the given extra angles.
func checkEngineMatchesScan(t *testing.T, tag string, eng *Engine, stride int, extra []float64, active []bool) {
	t.Helper()
	in := eng.Instance()
	var ids []int
	for j, a := range in.Antennas {
		got, want := eng.Candidates(j), scanCandidates(in, j)
		if len(got) != len(want) {
			t.Fatalf("%s antenna %d: %d candidates, scan has %d", tag, j, len(got), len(want))
		}
		for k := range want {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("%s antenna %d candidate %d: engine %v, scan %v", tag, j, k, got[k], want[k])
			}
		}
		alphas := append([]float64{}, extra...)
		for k := 0; k < len(want); k += stride {
			alphas = append(alphas, want[k], geom.NewInterval(want[k], a.Rho).End())
		}
		for _, alpha := range alphas {
			ids = eng.AppendMembers(ids[:0], j, alpha, active)
			ref := scanCovered(in, j, alpha, active)
			if len(ids) != len(ref) {
				t.Fatalf("%s antenna %d at %v: engine members %v, scan %v", tag, j, alpha, ids, ref)
			}
			for k := range ref {
				if ids[k] != ref[k] {
					t.Fatalf("%s antenna %d at %v: engine members %v, scan %v", tag, j, alpha, ids, ref)
				}
			}
		}
	}
}

// TestEngineMatchesScan is the differential test of the engine against
// the reference scans: candidate angles bit for bit and window members in
// index order, over every gen family with and without active masks, at
// customer, grid and placed-sector-end angles, at angles within geom.Eps of
// 0 and 2π, for widths 0 and at least 2π−Eps, for customers exactly on an
// antenna's Range and MinRange, and on an instance large enough for
// Prewarm's parallel path.
func TestEngineMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	extra := []float64{0, geom.Eps / 2, geom.Eps, 2 * geom.Eps, geom.TwoPi - geom.Eps, geom.TwoPi - geom.Eps/2, math.Nextafter(geom.TwoPi, 0)}
	for g := 0; g < 48; g++ {
		extra = append(extra, geom.TwoPi*float64(g)/48)
	}
	mask := func(in *model.Instance) []bool {
		active := make([]bool, in.N())
		for i := range active {
			active[i] = rng.Intn(3) != 0
		}
		return active
	}
	check := func(tag string, in *model.Instance) {
		t.Helper()
		checkEngineMatchesScan(t, tag, NewEngine(in), 1, extra, nil)
		checkEngineMatchesScan(t, tag+"/masked", NewEngine(in), 1, extra, mask(in))
	}
	for _, fam := range gen.Families() {
		for seed := int64(1); seed <= 3; seed++ {
			for _, v := range []model.Variant{model.Sectors, model.Angles} {
				in := gen.MustGenerate(gen.Config{Family: fam, Seed: seed, N: 40, M: 3, Variant: v, MinRange: float64(seed - 1)})
				tag := fmt.Sprintf("%s/%d/%v", fam, seed, v)
				check(tag, in)

				// Customers on the seam, and on every antenna's Range and
				// MinRange, then widths 0 and at least 2π−Eps.
				for j, a := range in.Antennas {
					in.Customers = append(in.Customers,
						model.Customer{Theta: geom.Eps / 3, R: a.MinRange, Demand: 1 + int64(j)},
						model.Customer{Theta: geom.TwoPi - geom.Eps/3, R: a.Range, Demand: 2},
						model.Customer{Theta: in.Customers[j].Theta, R: a.Range, Demand: 3},
					)
				}
				in.Normalize()
				check(tag+"/edges", in)
				for _, rho := range []float64{0, geom.TwoPi - geom.Eps, geom.TwoPi} {
					for j := range in.Antennas {
						in.Antennas[j].Rho = rho
					}
					check(fmt.Sprintf("%s/rho%v", tag, rho), in)
				}
			}
		}
	}
	defer SetMaxWorkers(SetMaxWorkers(8))
	in := largeDiffInstance(t)
	eng := NewEngine(in)
	if err := eng.Prewarm(context.Background()); err != nil {
		t.Fatal(err)
	}
	checkEngineMatchesScan(t, "large/parallel", eng, 97, nil, nil)
}

// TestWindowSetRefusesOutsideSweep checks that a WindowSet refuses, loudly,
// a customer its antenna's sweep does not hold (here one beyond Range), so
// no covered customer can drop out of a bound unnoticed.
func TestWindowSetRefusesOutsideSweep(t *testing.T) {
	in := (&model.Instance{
		Variant: model.Sectors,
		Customers: []model.Customer{
			{Theta: 1, R: 1, Demand: 1, Profit: 1},
			{Theta: 1, R: 9, Demand: 1, Profit: 1},
		},
		Antennas: []model.Antenna{{Rho: 1, Range: 2, Capacity: 1}},
	}).Normalize()
	var w WindowSet
	w.Reset(NewEngine(in), 0)
	w.Add(0)
	if got := w.FractionalBound(1); math.Float64bits(got) != math.Float64bits(1) {
		t.Fatalf("FractionalBound = %v, want 1", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Add of a customer outside the sweep did not panic")
		}
	}()
	w.Add(1)
}
