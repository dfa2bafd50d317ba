package multistation

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"sectorpack/internal/core"
	"sectorpack/internal/geom"
	"sectorpack/internal/knapsack"
	"sectorpack/internal/model"
)

func randMulti(rng *rand.Rand, n, stations, antennasPer int, spread float64) *Instance {
	in := &Instance{Name: "multi"}
	centers := make([]geom.XY, stations)
	for s := range centers {
		centers[s] = geom.XY{X: rng.Float64() * spread, Y: rng.Float64() * spread}
		st := Station{Pos: centers[s]}
		for j := 0; j < antennasPer; j++ {
			st.Antennas = append(st.Antennas, model.Antenna{
				Rho: 0.5 + rng.Float64(), Range: 6, Capacity: 5 + rng.Int63n(15),
			})
		}
		in.Stations = append(in.Stations, st)
	}
	for i := 0; i < n; i++ {
		c := centers[rng.Intn(stations)]
		in.Customers = append(in.Customers, Customer{
			Pos:    geom.XY{X: c.X + rng.NormFloat64()*3, Y: c.Y + rng.NormFloat64()*3},
			Demand: 1 + rng.Int63n(5),
		})
	}
	return in.Normalize()
}

func TestGreedyFeasibleOnRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(141))
	for trial := 0; trial < 15; trial++ {
		in := randMulti(rng, 10+rng.Intn(30), 1+rng.Intn(3), 1+rng.Intn(2), 20)
		as, profit, err := SolveGreedy(context.Background(), in, knapsack.Options{})
		if err != nil {
			t.Fatalf("SolveGreedy: %v", err)
		}
		if err := as.Check(in); err != nil {
			t.Fatalf("infeasible: %v", err)
		}
		if got := as.Profit(in); got != profit {
			t.Fatalf("reported profit %d != assignment profit %d", profit, got)
		}
		if profit > in.TotalProfit() {
			t.Fatalf("profit %d exceeds total %d", profit, in.TotalProfit())
		}
	}
}

// TestSingleStationMatchesCore checks that one station at the origin
// reproduces the single-station greedy exactly.
func TestSingleStationMatchesCore(t *testing.T) {
	rng := rand.New(rand.NewSource(142))
	for trial := 0; trial < 10; trial++ {
		n := 8 + rng.Intn(15)
		single := &model.Instance{Variant: model.Sectors}
		multi := &Instance{Name: "single"}
		st := Station{Pos: geom.XY{}}
		for j := 0; j < 2; j++ {
			a := model.Antenna{Rho: 0.5 + rng.Float64(), Range: 7, Capacity: 8 + rng.Int63n(10)}
			single.Antennas = append(single.Antennas, a)
			st.Antennas = append(st.Antennas, a)
		}
		multi.Stations = []Station{st}
		for i := 0; i < n; i++ {
			p := geom.Polar{Theta: rng.Float64() * geom.TwoPi, R: rng.Float64() * 8}
			d := 1 + rng.Int63n(5)
			single.Customers = append(single.Customers, model.Customer{Theta: p.Theta, R: p.R, Demand: d})
			multi.Customers = append(multi.Customers, Customer{Pos: geom.XY{X: p.R * math.Cos(p.Theta), Y: p.R * math.Sin(p.Theta)}, Demand: d})
		}
		single.Normalize()
		multi.Normalize()
		want, err := core.SolveGreedy(context.Background(), single, core.Options{SkipBound: true})
		if err != nil {
			t.Fatalf("core greedy: %v", err)
		}
		_, got, err := SolveGreedy(context.Background(), multi, knapsack.Options{})
		if err != nil {
			t.Fatalf("multi greedy: %v", err)
		}
		if got != want.Profit {
			t.Fatalf("multi %d != single %d", got, want.Profit)
		}
	}
}

// TestFarApartStationsDecompose checks that two clusters far beyond any
// antenna range are solved independently and the profits add up.
func TestFarApartStationsDecompose(t *testing.T) {
	rng := rand.New(rand.NewSource(143))
	mk := func(center geom.XY, seed int64) (*Instance, *model.Instance) {
		r := rand.New(rand.NewSource(seed))
		multi := &Instance{Name: "part"}
		single := &model.Instance{Variant: model.Sectors}
		st := Station{Pos: center}
		a := model.Antenna{Rho: 1.2, Range: 6, Capacity: 12}
		st.Antennas = []model.Antenna{a}
		single.Antennas = []model.Antenna{a}
		multi.Stations = []Station{st}
		for i := 0; i < 12; i++ {
			p := geom.Polar{Theta: r.Float64() * geom.TwoPi, R: r.Float64() * 5}
			d := 1 + r.Int63n(4)
			multi.Customers = append(multi.Customers, Customer{
				Pos: geom.XY{X: p.R*math.Cos(p.Theta) + center.X, Y: p.R*math.Sin(p.Theta) + center.Y}, Demand: d,
			})
			single.Customers = append(single.Customers, model.Customer{Theta: p.Theta, R: p.R, Demand: d})
		}
		return multi.Normalize(), single.Normalize()
	}
	mA, sA := mk(geom.XY{}, rng.Int63())
	mB, sB := mk(geom.XY{X: 1000, Y: 1000}, rng.Int63())

	merged := &Instance{Name: "merged", Stations: append(mA.Stations, mB.Stations...)}
	merged.Customers = append(merged.Customers, mA.Customers...)
	merged.Customers = append(merged.Customers, mB.Customers...)
	merged.Normalize()

	_, got, err := SolveGreedy(context.Background(), merged, knapsack.Options{})
	if err != nil {
		t.Fatalf("merged: %v", err)
	}
	pa, err := core.SolveGreedy(context.Background(), sA, core.Options{SkipBound: true})
	if err != nil {
		t.Fatal(err)
	}
	pb, err := core.SolveGreedy(context.Background(), sB, core.Options{SkipBound: true})
	if err != nil {
		t.Fatal(err)
	}
	if got != pa.Profit+pb.Profit {
		t.Fatalf("merged %d != %d + %d (independent parts)", got, pa.Profit, pb.Profit)
	}
}

func TestValidateAndCheckErrors(t *testing.T) {
	in := &Instance{
		Customers: []Customer{{ID: 0, Pos: geom.XY{X: 1}, Demand: 0}},
		Stations:  []Station{{Antennas: []model.Antenna{{Rho: 1, Range: 5, Capacity: 5}}}},
	}
	if err := in.Validate(); err == nil {
		t.Error("zero demand must fail")
	}
	in.Customers[0].Demand = 2
	in.Normalize()
	as, _, err := SolveGreedy(context.Background(), in, knapsack.Options{})
	if err != nil {
		t.Fatalf("SolveGreedy: %v", err)
	}
	// corrupt the assignment in various ways
	bad := &Assignment{
		Orientation:  as.Orientation,
		OwnerStation: []int{5},
		OwnerAntenna: []int{0},
	}
	if err := bad.Check(in); err == nil {
		t.Error("unknown station must fail check")
	}
	bad2 := &Assignment{Orientation: nil, OwnerStation: []int{-1}, OwnerAntenna: []int{-1}}
	if err := bad2.Check(in); err == nil {
		t.Error("missing orientation rows must fail check")
	}
	short := &Assignment{Orientation: as.Orientation, OwnerStation: nil, OwnerAntenna: nil}
	if err := short.Check(in); err == nil {
		t.Error("short owners must fail check")
	}
}

func TestOverloadDetected(t *testing.T) {
	in := &Instance{
		Customers: []Customer{
			{Pos: geom.XY{X: 2}, Demand: 4},
			{Pos: geom.XY{X: 3}, Demand: 4},
		},
		Stations: []Station{{Antennas: []model.Antenna{{Rho: 1, Range: 5, Capacity: 5}}}},
	}
	in.Normalize()
	as := &Assignment{
		Orientation:  [][]float64{{6.0}},
		OwnerStation: []int{0, 0},
		OwnerAntenna: []int{0, 0},
	}
	if err := as.Check(in); err == nil {
		t.Error("overload must fail check")
	}
}
