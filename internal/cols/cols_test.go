package cols

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"sectorpack/internal/gen"
	"sectorpack/internal/model"
)

// bruteEligible is the reference the pre-filter must match exactly: the
// naive scan applying model.Antenna.InRange per customer, in view position
// order.
func bruteEligible(v *View, in *model.Instance, a model.Antenna) []int32 {
	var out []int32
	for p := 0; p < v.Len(); p++ {
		if a.InRange(in.Customers[v.ID[p]]) {
			out = append(out, int32(p))
		}
	}
	return out
}

func assertEligibleMatches(t *testing.T, in *model.Instance, a model.Antenna, label string) {
	t.Helper()
	v := New(in)
	got := v.AppendEligible(a, nil)
	want := bruteEligible(v, in, a)
	if len(got) != len(want) {
		t.Fatalf("%s: eligible count %d, brute force %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: position %d: got %d want %d", label, i, got[i], want[i])
		}
	}
}

// instanceWithRadii builds a validated instance whose customers sit at the
// given radii (angles spread to keep them distinct).
func instanceWithRadii(radii []float64) *model.Instance {
	in := &model.Instance{Variant: model.Sectors}
	for i, r := range radii {
		in.Customers = append(in.Customers, model.Customer{
			ID:     i,
			Theta:  float64(i) * 0.1,
			R:      r,
			Demand: 1,
		})
	}
	in.Antennas = []model.Antenna{{Rho: 1, Range: 4, Capacity: 100}}
	return in.Normalize()
}

// TestEligibleBoundaryExactRange pins the EffRange boundary: a customer
// exactly on the antenna's radius, one just inside the tolerance band, and
// one just past it must classify identically to the brute-force InRange
// scan on both selection paths.
func TestEligibleBoundaryExactRange(t *testing.T) {
	const rng = 4.0
	_, hi := model.Antenna{Range: rng}.RadialBounds()
	radii := []float64{
		0, rng / 2,
		rng,                             // exactly on the radius: eligible
		hi,                              // exactly on the tolerance bound: eligible
		math.Nextafter(hi, math.Inf(1)), // one ulp past: ineligible
		rng * 2,
	}
	in := instanceWithRadii(radii)
	a := model.Antenna{Rho: 1, Range: rng, Capacity: 100}
	assertEligibleMatches(t, in, a, "exact-range")

	v := New(in)
	got := v.AppendEligible(a, nil)
	if len(got) != 4 {
		t.Fatalf("want the 4 radii at or below the tolerance bound, got %d positions", len(got))
	}
}

// TestEligibleBoundaryMinRange pins the annulus lower boundary the same
// way: exactly on MinRange (eligible under the 1e-12/Eps slack), exactly on
// the slackened bound, and one ulp below it.
func TestEligibleBoundaryMinRange(t *testing.T) {
	const minR, rng = 2.0, 6.0
	lo, _ := model.Antenna{MinRange: minR, Range: rng}.RadialBounds()
	radii := []float64{
		0, minR / 2,
		math.Nextafter(lo, math.Inf(-1)), // one ulp below the bound: ineligible
		lo,                               // exactly on the bound: eligible
		minR,                             // exactly on MinRange: eligible
		(minR + rng) / 2, rng,
	}
	in := instanceWithRadii(radii)
	a := model.Antenna{Rho: 1, Range: rng, MinRange: minR, Capacity: 100}
	assertEligibleMatches(t, in, a, "min-range")

	v := New(in)
	got := v.AppendEligible(a, nil)
	if len(got) != 4 {
		t.Fatalf("want the 4 radii inside the annulus tolerance band, got %d", len(got))
	}
}

// TestEligibleZeroWidthRay checks that a degenerate ray antenna (Rho == 0)
// filters radially exactly like a wide one — angular width plays no part in
// eligibility — including with an annulus and with unbounded reach.
func TestEligibleZeroWidthRay(t *testing.T) {
	in := instanceWithRadii([]float64{0, 1, 2, 3, 4, 5, 6})
	for _, a := range []model.Antenna{
		{Rho: 0, Range: 3, Capacity: 10},
		{Rho: 0, Range: 3, MinRange: 1.5, Capacity: 10},
		{Rho: 0, Capacity: 10}, // Range 0 encodes unbounded
	} {
		assertEligibleMatches(t, in, a, "zero-width-ray")
	}
}

// TestEligibleMatchesBruteForceRandom sweeps generated families and random
// antenna shapes — unbounded, bounded, annulus, tight annulus (forcing the
// pre-filter path), and full-disk (forcing the scan path) — against the
// brute-force reference.
func TestEligibleMatchesBruteForceRandom(t *testing.T) {
	rnd := rand.New(rand.NewSource(99))
	for _, fam := range gen.Families() {
		in := gen.MustGenerate(gen.Config{Family: fam, Seed: 11, N: 300, M: 2, Variant: model.Sectors})
		for trial := 0; trial < 20; trial++ {
			a := model.Antenna{Rho: rnd.Float64() * 2, Capacity: 50}
			switch trial % 4 {
			case 0: // unbounded
			case 1:
				a.Range = rnd.Float64() * 12
			case 2:
				a.Range = 2 + rnd.Float64()*10
				a.MinRange = rnd.Float64() * a.Range
			case 3: // tight annulus: few eligible, exercises the pre-filter
				a.Range = 1 + rnd.Float64()*10
				a.MinRange = a.Range * 0.98
			}
			assertEligibleMatches(t, in, a, string(fam))
		}
	}
}

// TestRadialBoundsMatchInRange enforces the contract RadialBounds
// documents: for non-NaN radii the closed-interval test is InRange.
func TestRadialBoundsMatchInRange(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		a := model.Antenna{}
		if trial%2 == 0 {
			a.Range = rnd.Float64() * 10
		}
		if trial%3 == 0 {
			a.MinRange = rnd.Float64() * 5
		}
		lo, hi := a.RadialBounds()
		r := rnd.Float64() * 14
		if trial%5 == 0 {
			// Hit the bounds exactly and one ulp around them.
			switch trial % 3 {
			case 0:
				r = lo
			case 1:
				r = math.Nextafter(hi, math.Inf(-1))
			case 2:
				r = hi
			}
			if math.IsInf(r, 0) {
				r = rnd.Float64()
			}
		}
		c := model.Customer{R: r}
		if got, want := lo <= c.R && c.R <= hi, a.InRange(c); got != want {
			t.Fatalf("antenna %+v radius %v: interval test %v, InRange %v", a, r, got, want)
		}
	}
}

// keyed is one record of the reference sort: a float key (angle or
// radius) and the index it belongs to (customer index or position).
type keyed struct {
	key float64
	idx int32
}

// sortKeyed is the reference order of the view's radix sorts: by (key, idx)
// ascending, with keys compared by < only, so −0 and +0 tie and the index
// breaks the tie.
func sortKeyed(ks []keyed) {
	slices.SortFunc(ks, func(a, b keyed) int {
		if a.key < b.key {
			return -1
		}
		if b.key < a.key {
			return 1
		}
		return cmp.Compare(a.idx, b.idx)
	})
}

// referenceView builds the view New documents with comparator sorts.
func referenceView(in *model.Instance) *View {
	n := len(in.Customers)
	v := &View{
		Theta:   make([]float64, n),
		R:       make([]float64, n),
		Demand:  make([]int64, n),
		Profit:  make([]int64, n),
		ID:      make([]int32, n),
		byR:     make([]int32, n),
		sortedR: make([]float64, n),
	}
	keys := make([]keyed, n)
	for i := range in.Customers {
		keys[i] = keyed{in.Customers[i].Theta, int32(i)}
	}
	sortKeyed(keys)
	for p, k := range keys {
		c := &in.Customers[k.idx]
		v.Theta[p], v.R[p], v.Demand[p], v.Profit[p], v.ID[p] = c.Theta, c.R, c.Demand, c.Profit, k.idx
	}
	for p, r := range v.R {
		keys[p] = keyed{r, int32(p)}
	}
	sortKeyed(keys)
	for k, kv := range keys {
		v.byR[k], v.sortedR[k] = kv.idx, kv.key
	}
	return v
}

// TestViewLayoutDeterministic checks the documented layout: ascending
// angles with ties in ascending customer order, columns matching the
// source customers, and a radius index that really is sorted. Every column
// of New must equal the comparator-sorted reference layout, on duplicate
// angles and radii, −0 beside +0, angles at 0 and just under 2π, and at
// n = 0, 1 and 100k.
func TestViewLayoutDeterministic(t *testing.T) {
	in := &model.Instance{Variant: model.Sectors}
	// Duplicate angles on purpose: positions 2,3,4 share theta.
	thetas := []float64{3, 1, 2, 2, 2, 0.5}
	for i, th := range thetas {
		in.Customers = append(in.Customers, model.Customer{
			ID: i, Theta: th, R: float64(len(thetas) - i), Demand: int64(i + 1), Profit: int64(10 * (i + 1)),
		})
	}
	in.Antennas = []model.Antenna{{Rho: 1, Range: 100, Capacity: 10}}
	in.Normalize()
	v := New(in)
	wantIDs := []int32{5, 1, 2, 3, 4, 0} // sorted by (theta, id)
	for p, want := range wantIDs {
		if v.ID[p] != want {
			t.Fatalf("position %d: ID %d, want %d", p, v.ID[p], want)
		}
		c := in.Customers[want]
		// Columns must copy the customer values verbatim: compare by bits.
		if math.Float64bits(v.Theta[p]) != math.Float64bits(c.Theta) ||
			math.Float64bits(v.R[p]) != math.Float64bits(c.R) ||
			v.Demand[p] != c.Demand || v.Profit[p] != c.Profit {
			t.Fatalf("position %d: columns diverge from customer %d", p, want)
		}
	}
	for k := 1; k < len(v.sortedR); k++ {
		if v.sortedR[k] < v.sortedR[k-1] {
			t.Fatalf("radius index not sorted at %d", k)
		}
	}
	viewsIdentical(t, "fixture", v, referenceView(in))

	// customers builds an instance from (theta, radius) pairs.
	customers := func(pairs ...float64) *model.Instance {
		in := &model.Instance{Variant: model.Sectors}
		for i := 0; i+1 < len(pairs); i += 2 {
			in.Customers = append(in.Customers, model.Customer{ID: i / 2, Theta: pairs[i], R: pairs[i+1], Demand: 1})
		}
		return in
	}
	negZero := math.Copysign(0, -1)
	under2Pi := math.Nextafter(2*math.Pi, 0)
	rnd := rand.New(rand.NewSource(12))
	cfg, err := gen.Tier("100k-churn")
	if err != nil {
		t.Fatal(err)
	}
	tier := gen.MustGenerate(cfg)
	// The same tier with every third angle and radius copied from its
	// neighbour, so a large input has many ties too.
	tied := tier.Clone()
	for i := 1; i < len(tied.Customers); i += 3 {
		tied.Customers[i].Theta, tied.Customers[i].R = tied.Customers[i-1].Theta, tied.Customers[i-1].R
	}
	rnd.Shuffle(len(tied.Customers), func(a, b int) {
		tied.Customers[a], tied.Customers[b] = tied.Customers[b], tied.Customers[a]
	})
	for _, c := range []struct {
		name string
		in   *model.Instance
	}{
		{"empty", customers()},
		{"one", customers(1.5, 2)},
		{"duplicates", customers(2, 1, 1, 3, 2, 1, 2, 3, 1, 1, 0.5, 3, 2, 1)},
		{"signed zeros", customers(0, 1, negZero, 0, 0, negZero, negZero, 1, 0, 0, 1, negZero)},
		{"seam", customers(under2Pi, 2, 0, 2, math.Nextafter(under2Pi, 0), 1, 0, 1, under2Pi, 3, math.SmallestNonzeroFloat64, 2)},
		{"100k-churn", tier},
		{"100k-churn ties", tied},
	} {
		viewsIdentical(t, c.name, New(c.in), referenceView(c.in))
	}
}

// viewsIdentical compares every column of two views bit for bit (floats via
// Float64bits, so the check is exact identity, not tolerance).
func viewsIdentical(t *testing.T, label string, got, want *View) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: len %d, want %d", label, got.Len(), want.Len())
	}
	for p := 0; p < want.Len(); p++ {
		if got.ID[p] != want.ID[p] || got.byR[p] != want.byR[p] ||
			got.Demand[p] != want.Demand[p] || got.Profit[p] != want.Profit[p] ||
			math.Float64bits(got.Theta[p]) != math.Float64bits(want.Theta[p]) ||
			math.Float64bits(got.R[p]) != math.Float64bits(want.R[p]) ||
			math.Float64bits(got.sortedR[p]) != math.Float64bits(want.sortedR[p]) {
			t.Fatalf("%s: position %d diverges:\n got  ID=%d byR=%d theta=%v r=%v d=%d pr=%d sortedR=%v\n want ID=%d byR=%d theta=%v r=%v d=%d pr=%d sortedR=%v",
				label, p,
				got.ID[p], got.byR[p], got.Theta[p], got.R[p], got.Demand[p], got.Profit[p], got.sortedR[p],
				want.ID[p], want.byR[p], want.Theta[p], want.R[p], want.Demand[p], want.Profit[p], want.sortedR[p])
		}
	}
}

// TestRebaseMatchesFreshBuild is the incremental-view differential: across
// generated churn traces, chained Rebase calls (each building on the
// previous rebased view, as a live session does) must reproduce New(next)
// bit for bit after every delta.
func TestRebaseMatchesFreshBuild(t *testing.T) {
	cfgs := []gen.ChurnConfig{
		{Base: gen.Config{Family: gen.Uniform, Seed: 5, N: 120, M: 4}, Steps: 6, Rate: 0.1},
		{Base: gen.Config{Family: gen.Uniform, Seed: 6, N: 200, M: 8, Bands: 8, Tightness: 5}, Steps: 6, Rate: 0.05, Localized: true},
		{Base: gen.Config{Family: gen.Hotspot, Seed: 7, N: 80, M: 3, UnitDemand: true}, Steps: 5, Rate: 0.2},
		{Base: gen.Config{Family: gen.Rings, Seed: 8, N: 150, M: 5}, Steps: 4, Rate: 0.5},
	}
	for _, cfg := range cfgs {
		tr, err := gen.GenerateTrace(cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		cur := tr.Instance
		view := New(cur)
		for k, d := range tr.Deltas {
			next, err := model.ApplyDelta(cur, d)
			if err != nil {
				t.Fatalf("%s delta %d: %v", tr.Name, k, err)
			}
			view = Rebase(view, next, d.Remove, len(d.Add))
			viewsIdentical(t, tr.Name+" after delta "+string(rune('0'+k)), view, New(next))
			cur = next
		}
	}
}

// TestRebaseTies pins the tie-breaking: removals and arrivals that share
// theta and radius values with survivors must land exactly where New's
// stable (theta, id) and (radius, position) orders put them.
func TestRebaseTies(t *testing.T) {
	in := &model.Instance{Variant: model.Sectors}
	// Three customers at theta=2, duplicated radii across the population.
	thetas := []float64{3, 1, 2, 2, 2, 0.5}
	radii := []float64{4, 2, 2, 4, 1, 2}
	for i := range thetas {
		in.Customers = append(in.Customers, model.Customer{
			ID: i, Theta: thetas[i], R: radii[i], Demand: int64(i + 1),
		})
	}
	in.Antennas = []model.Antenna{{Rho: 1, Range: 100, Capacity: 10}}
	in.Normalize()
	d := model.Delta{
		Remove: []int{3, 0}, // one of the theta=2 triple, plus an r=4 holder
		Add: []model.Customer{
			{Theta: 2, R: 2, Demand: 7},   // re-joins both tie groups
			{Theta: 0.5, R: 2, Demand: 9}, // ties the surviving head
		},
		SetDemand: []model.DemandChange{{Customer: 4, Demand: 50}},
	}
	next, err := model.ApplyDelta(in, d)
	if err != nil {
		t.Fatal(err)
	}
	viewsIdentical(t, "ties", Rebase(New(in), next, d.Remove, len(d.Add)), New(next))
}

// TestRebaseDegenerate covers the empty extremes: a delta removing every
// customer, and one repopulating an empty instance.
func TestRebaseDegenerate(t *testing.T) {
	in := instanceWithRadii([]float64{1, 2, 3})
	all := model.Delta{Remove: []int{0, 1, 2}}
	empty, err := model.ApplyDelta(in, all)
	if err != nil {
		t.Fatal(err)
	}
	ev := Rebase(New(in), empty, all.Remove, 0)
	viewsIdentical(t, "drain", ev, New(empty))
	refill := model.Delta{Add: []model.Customer{{Theta: 1, R: 2, Demand: 3}, {Theta: 0.5, R: 1, Demand: 1}}}
	next, err := model.ApplyDelta(empty, refill)
	if err != nil {
		t.Fatal(err)
	}
	viewsIdentical(t, "refill", Rebase(ev, next, nil, len(refill.Add)), New(next))
}

// BenchmarkNew measures the columnar build, the two radix sorts included,
// on the 100k-churn tier instance.
func BenchmarkNew(b *testing.B) {
	cfg, err := gen.Tier("100k-churn")
	if err != nil {
		b.Fatal(err)
	}
	in := gen.MustGenerate(cfg)
	b.Run("n100k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchView = New(in)
		}
	})
}

var benchView *View

// TestSortPositions pins the pre-filter's radix sort to slices.Sort on
// distinct positions drawn below n, at sizes that take one, two and three
// passes, each with digits narrower than eleven bits and at eleven.
func TestSortPositions(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 300, 2048, 2049, 1 << 17, 100_000, 1 << 22, 1<<22 + 1, math.MaxInt32} {
		for _, k := range []int{0, 1, 2, 17, 3000} {
			k = min(k, n)
			seen := make(map[int32]bool, k)
			p := make([]int32, 0, k)
			for len(p) < k {
				if q := int32(rnd.Int63n(int64(n))); !seen[q] {
					seen[q] = true
					p = append(p, q)
				}
			}
			if k > 0 && n > 1 {
				p[0] = int32(n - 1) // the top digit in use
			}
			want := slices.Clone(p)
			slices.Sort(want)
			sortPositions(p, make([]int32, k), n)
			if !slices.Equal(p, want) {
				t.Fatalf("n=%d k=%d: radix order differs from slices.Sort", n, k)
			}
		}
	}
}

// TestAppendEligibleAppends checks both selection paths append after what
// out already holds, with and without spare capacity, on an instance large
// enough (n > 2^11) that the pre-filter sorts in two radix passes.
func TestAppendEligibleAppends(t *testing.T) {
	in := gen.MustGenerate(gen.Config{Family: gen.Uniform, Seed: 5, N: 5000, M: 1})
	v := New(in)
	prefix := []int32{-1, -2, -3}
	for _, a := range []model.Antenna{
		{Rho: 1, Range: 9.9, MinRange: 9.8, Capacity: 1}, // a thin annulus: the pre-filter
		{Rho: 1, Capacity: 1},                            // unbounded: the scan
	} {
		lo, hi := v.RadialRun(a)
		if hi == lo || prefilterWins(hi-lo, v.Len()) != (a.Range != 0) {
			t.Fatalf("antenna %+v: %d eligible of %d take the other path", a, hi-lo, v.Len())
		}
		want := append(slices.Clone(prefix), bruteEligible(v, in, a)...)
		for _, out := range [][]int32{slices.Clone(prefix), append(make([]int32, 0, 20000), prefix...)} {
			if got := v.AppendEligible(a, out); !slices.Equal(got, want) {
				t.Fatalf("antenna %+v: AppendEligible after %v differs from the brute-force scan", a, prefix)
			}
		}
	}
}

// TestSortByKeyMatchesStableSort pins the radix sort to a comparison
// stable sort at widths that take one digit, several, and all six, with
// keys drawn from few values, so most keys tie and stability shows, and
// with list lengths on both sides of one histogram bucket count.
func TestSortByKeyMatchesStableSort(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	for _, width := range []int{1, 11, 12, 22, 40, 53, 63, 64} {
		for _, k := range []int{0, 1, 2, 255, 2049, 5000} {
			for _, few := range []bool{true, false} {
				vals := make([]uint64, 4)
				for v := range vals {
					vals[v] = rnd.Uint64() >> (64 - width)
				}
				keys := make([]uint64, k+7) // keys no order entry points at
				for i := range keys {
					keys[i] = rnd.Uint64() >> (64 - width)
					if few {
						keys[i] = vals[rnd.Intn(len(vals))]
					}
				}
				order := make([]int32, k)
				for i := range order {
					order[i] = int32(rnd.Intn(len(keys)))
				}
				want := slices.Clone(order)
				slices.SortStableFunc(want, func(a, b int32) int { return cmp.Compare(keys[a], keys[b]) })
				SortByKey(order, make([]int32, k), keys, width)
				if !slices.Equal(order, want) {
					t.Fatalf("width=%d k=%d few=%v: radix order differs from the stable sort", width, k, few)
				}
			}
		}
	}
}

// BenchmarkSortByKey measures the radix sort on the list lengths sweeps
// sort (k = 256…4096), with keys of one digit (an 11-bit profit) and of
// six (a density's float bits, as dantzigOrder sorts them).
func BenchmarkSortByKey(b *testing.B) {
	rnd := rand.New(rand.NewSource(12))
	for _, width := range []int{11, 63} {
		for _, k := range []int{256, 1024, 4096} {
			keys := make([]uint64, k)
			for i := range keys {
				keys[i] = rnd.Uint64() >> (64 - width)
			}
			src := make([]int32, k)
			for i := range src {
				src[i] = int32(i)
			}
			order, tmp := make([]int32, k), make([]int32, k)
			b.Run(fmt.Sprintf("w%d/k%d", width, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(order, src)
					SortByKey(order, tmp, keys, width)
				}
			})
		}
	}
}
