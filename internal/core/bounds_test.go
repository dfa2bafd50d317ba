package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"sectorpack/internal/angular"
	"sectorpack/internal/gen"
	"sectorpack/internal/geom"
	"sectorpack/internal/knapsack"
	"sectorpack/internal/model"
)

// scanUpperBound is UpperBoundContext's loop before the window bound
// walked the sweep's density order, over the candidate angles cands(j) of
// each antenna j: per window, the covered customers' items in index order,
// sorted again by knapsack.FractionalBound. It is the reference the bound
// stays bit-identical to.
func scanUpperBound(in *model.Instance, cands func(j int) []float64) float64 {
	total := float64(in.TotalProfit())
	var sum float64
	var items []knapsack.Item
	for j, a := range in.Antennas {
		best := 0.0
		for _, alpha := range cands(j) {
			items = items[:0]
			for _, c := range in.Customers {
				if a.Covers(alpha, c) {
					items = append(items, knapsack.Item{Weight: c.Demand, Profit: c.Profit})
				}
			}
			if len(items) == 0 {
				continue
			}
			if b := knapsack.FractionalBound(items, a.Capacity); b > best {
				best = b
			}
		}
		sum += best
	}
	if sum < total {
		return sum
	}
	return total
}

// checkBoundMatchesScan fails unless UpperBoundContext on eng equals
// scanUpperBound over a fresh engine's candidates, bit for bit.
func checkBoundMatchesScan(t *testing.T, tag string, eng *angular.Engine) {
	t.Helper()
	want := scanUpperBound(eng.Instance(), angular.NewEngine(eng.Instance()).Candidates)
	got, err := UpperBoundContext(context.Background(), eng)
	if err != nil || math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: UpperBoundContext = %v (%x), %v; scan reference %v (%x)",
			tag, got, math.Float64bits(got), err, want, math.Float64bits(want))
	}
}

// TestUpperBoundMatchesScan pins the sweep-walked bound to the scan
// reference, bit for bit: on every gen family in every variant with
// decoupled profits, at sizes on both sides of the sweeps' radix-sort
// threshold; on the all-equal items of TestBestWindowPruningInvariance's
// tie-heavy family at odd capacities; with customers exactly on every
// antenna's Range and MinRange and on the 2π seam, at widths 0 and at
// least 2π−Eps; and on an engine rebased through a chain of localized
// churn deltas.
func TestUpperBoundMatchesScan(t *testing.T) {
	variants := []model.Variant{model.Sectors, model.Angles, model.DisjointAngles}
	for _, fam := range gen.Families() {
		for _, v := range variants {
			for seed := int64(1); seed <= 2; seed++ {
				for _, n := range []int{40, 300} {
					in := gen.MustGenerate(gen.Config{Family: fam, Seed: seed, N: n, M: 3, Variant: v, ProfitSpread: 1.5, MinRange: float64(seed - 1)})
					checkBoundMatchesScan(t, fmt.Sprintf("%s/%v/%d/n%d", fam, v, seed, n), angular.NewEngine(in))
				}
			}
		}
	}

	for _, fam := range gen.Families() {
		in := gen.MustGenerate(gen.Config{Family: fam, Seed: 3, N: 60, M: 3, Variant: variants[len(fam)%len(variants)]})
		for i := range in.Customers {
			in.Customers[i].Demand, in.Customers[i].Profit = 2, 3
		}
		for c := int64(5); c <= 15; c += 2 {
			for j := range in.Antennas {
				in.Antennas[j].Capacity = c
			}
			checkBoundMatchesScan(t, fmt.Sprintf("ties/%s/c%d", fam, c), angular.NewEngine(in))
		}
	}

	for _, fam := range gen.Families() {
		in := gen.MustGenerate(gen.Config{Family: fam, Seed: 4, N: 40, M: 3, Variant: model.Sectors, MinRange: 1, ProfitSpread: 1})
		for j, a := range in.Antennas {
			in.Customers = append(in.Customers,
				model.Customer{Theta: geom.Eps / 3, R: a.MinRange, Demand: 1 + int64(j), Profit: 4},
				model.Customer{Theta: geom.TwoPi - geom.Eps/3, R: a.Range, Demand: 2, Profit: 5},
				model.Customer{Theta: in.Customers[j].Theta, R: a.Range, Demand: 3, Profit: 6},
			)
		}
		in.Normalize()
		checkBoundMatchesScan(t, fmt.Sprintf("edges/%s", fam), angular.NewEngine(in))
		for _, rho := range []float64{0, geom.TwoPi - geom.Eps, geom.TwoPi} {
			for j := range in.Antennas {
				in.Antennas[j].Rho = rho
			}
			checkBoundMatchesScan(t, fmt.Sprintf("edges/%s/rho%v", fam, rho), angular.NewEngine(in))
		}
	}

	cfg, err := gen.Tier("100k-churn")
	if err != nil {
		t.Fatal(err)
	}
	cfg.N, cfg.M, cfg.Bands = 1200, 8, 8
	tr, err := gen.GenerateTrace(gen.ChurnConfig{Base: cfg, Steps: 6, Rate: 0.02, Localized: true, CapacityEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	cur := tr.Instance
	eng := angular.NewEngine(cur)
	if err := eng.Prewarm(context.Background()); err != nil {
		t.Fatal(err)
	}
	checkBoundMatchesScan(t, "chain/base", eng)
	for k, d := range tr.Deltas {
		next, err := model.ApplyDelta(cur, d)
		if err != nil {
			t.Fatal(err)
		}
		eng.Rebase(next, d)
		checkBoundMatchesScan(t, fmt.Sprintf("chain/%d", k), eng)
		cur = next
	}
}

// TestUpperBoundWindowLoopAllocs checks that the bound allocates nothing
// per candidate window: a call on a prewarmed engine makes as many
// allocations on an instance with hundreds of candidates per antenna as on
// one with a handful.
func TestUpperBoundWindowLoopAllocs(t *testing.T) {
	allocs := func(n int) int {
		eng := angular.NewEngine(gen.MustGenerate(gen.Config{Family: gen.Uniform, Seed: 9, N: n, M: 4, ProfitSpread: 1}))
		if err := eng.Prewarm(context.Background()); err != nil {
			t.Fatal(err)
		}
		return int(testing.AllocsPerRun(5, func() {
			if _, err := UpperBoundContext(context.Background(), eng); err != nil {
				t.Fatal(err)
			}
		}))
	}
	small, large := allocs(8), allocs(400)
	if large != small {
		t.Fatalf("allocations per bound: %v at n=400, %v at n=8; want equal", large, small)
	}
}

// FuzzUpperBoundMatchesScan compares the sweep-walked bound with the scan
// reference on small instances built from the fuzz input: angles from a
// palette of eight, so candidate angles repeat; demands and profits from a
// palette of small values (equal densities tie) and values around 2^53,
// where the sweeps' radix sort declines and dantzigOrder sorts with
// densityCmp; and, when the first byte is odd, the customers repeated
// past the radix-sort threshold, so the radix path runs on the ties.
func FuzzUpperBoundMatchesScan(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{1, 0x33, 0x21, 0x40, 0x7f, 0x13, 0x24, 0x55, 0x61, 0x02, 0x19})
	f.Add([]byte{3, 0xf0, 0xf1, 0xf2, 0xf3, 0xe4, 0xe5, 0xd6, 0xd7, 0x08, 0x89, 0x9a})
	f.Add([]byte{0, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		in := fuzzBoundInstance(data)
		if err := in.Validate(); err != nil {
			t.Fatalf("fuzz instance invalid: %v", err)
		}
		checkBoundMatchesScan(t, "fuzz", angular.NewEngine(in))
	})
}

// fuzzBoundInstance decodes FuzzUpperBoundMatchesScan's input: byte 0
// picks the variant, the antenna widths and the repetition; each later
// byte is one customer (three bits of angle, two of radius, three of
// demand-and-profit pattern), up to twenty.
func fuzzBoundInstance(data []byte) *model.Instance {
	const big = 1 << 53
	values := []int64{1, 2, 3, 4, 6, big - 1, big, big + 2}
	head, body := data[0], data[1:min(len(data), 21)]
	in := &model.Instance{Variant: model.Sectors}
	if head&2 != 0 {
		in.Variant = model.Angles
	}
	for j := 0; j < 2; j++ {
		a := model.Antenna{Rho: []float64{0, 0.5, math.Pi, geom.TwoPi}[(head>>(2+2*j))&3], Capacity: values[(int(head)+3*j)%len(values)] + int64(j)}
		if in.Variant == model.Sectors {
			a.Range = 2
		}
		in.Antennas = append(in.Antennas, a)
	}
	reps := 1
	if head&1 != 0 {
		reps = 16
	}
	for r := 0; r < reps; r++ {
		for _, b := range body {
			v := int(b >> 5)
			in.Customers = append(in.Customers, model.Customer{
				Theta:  geom.TwoPi * float64(b&7) / 8,
				R:      []float64{0.5, 1, 2, 3}[(b>>3)&3],
				Demand: values[v],
				Profit: values[(v*5+r)%len(values)],
			})
		}
	}
	return in.Normalize()
}
