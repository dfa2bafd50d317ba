package cache

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"slices"
	"testing"

	"sectorpack/internal/core"
	"sectorpack/internal/gen"
	"sectorpack/internal/geom"
	"sectorpack/internal/model"
)

// refFingerprint is the reference fingerprint: one stable sort of the
// customers by the full comparator, and the canonical document streamed
// into SHA-256 field by field. NewFingerprint must give its key and
// permutations exactly.
func refFingerprint(in *model.Instance, opt core.Options, solver string) (key string, cust, ant []int) {
	cust = make([]int, in.N())
	for i := range cust {
		cust[i] = i
	}
	ant = make([]int, in.M())
	for j := range ant {
		ant[j] = j
	}
	cs := in.Customers
	slices.SortStableFunc(cust, func(a, b int) int {
		x, y := cs[a], cs[b]
		if c := cmp.Compare(x.Theta, y.Theta); c != 0 {
			return c
		}
		if c := cmp.Compare(x.R, y.R); c != 0 {
			return c
		}
		if c := cmp.Compare(x.Demand, y.Demand); c != 0 {
			return c
		}
		return cmp.Compare(x.Profit, y.Profit)
	})
	as := in.Antennas
	slices.SortStableFunc(ant, func(a, b int) int {
		x, y := as[a], as[b]
		if c := cmp.Compare(x.Rho, y.Rho); c != 0 {
			return c
		}
		if c := cmp.Compare(x.EffRange(), y.EffRange()); c != 0 {
			return c
		}
		if c := cmp.Compare(x.Capacity, y.Capacity); c != 0 {
			return c
		}
		return cmp.Compare(x.MinRange, y.MinRange)
	})

	h := sha256.New()
	u64 := func(v uint64) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	float := func(x float64) { u64(math.Float64bits(x)) }
	u64(fingerprintVersion)
	u64(uint64(len(solver)))
	h.Write([]byte(solver))
	float(opt.Knapsack.Eps)
	u64(uint64(opt.ExactLimits.MaxTuples))
	u64(uint64(opt.Seed))
	if opt.SkipBound {
		u64(1)
	} else {
		u64(0)
	}
	u64(uint64(in.Variant))
	u64(uint64(in.N()))
	for _, i := range cust {
		c := &cs[i]
		float(c.Theta)
		float(c.R)
		u64(uint64(c.Demand))
		u64(uint64(c.Profit))
	}
	u64(uint64(in.M()))
	for _, j := range ant {
		a := &as[j]
		float(a.Rho)
		float(a.EffRange())
		u64(uint64(a.Capacity))
		float(a.MinRange)
	}
	return hex.EncodeToString(h.Sum(nil)), cust, ant
}

// tiedInstance draws customers from a handful of angles, radii, demands
// and profits, with ±0 angles and exact duplicates, so equal-θ runs are
// long and most of them are re-sorted by the full comparator.
func tiedInstance(seed int64, n int) *model.Instance {
	rng := rand.New(rand.NewSource(seed))
	in := gen.MustGenerate(gen.Config{Family: gen.Uniform, Seed: seed, N: n, M: 3, Variant: model.Sectors})
	thetas := []float64{0, math.Copysign(0, -1), 1, math.Nextafter(1, 2), math.Pi, math.Nextafter(geom.TwoPi, 0)}
	for i := range in.Customers {
		c := &in.Customers[i]
		if i > 0 && rng.Intn(5) == 0 {
			*c = in.Customers[rng.Intn(i)] // an exact duplicate
			continue
		}
		c.Theta = thetas[rng.Intn(len(thetas))]
		c.R = float64(1 + rng.Intn(3))
		c.Demand = int64(1 + rng.Intn(2))
		c.Profit = int64(1 + rng.Intn(3))
	}
	return in.Normalize()
}

// TestFingerprintMatchesReference holds NewFingerprint's key and both
// permutations to refFingerprint's, on every gen family and on instances
// made of equal-θ ties, ±0 angles and duplicate customers, in several
// orders each.
func TestFingerprintMatchesReference(t *testing.T) {
	var cases []*model.Instance
	for _, fam := range gen.Families() {
		for seed := int64(1); seed <= 3; seed++ {
			for _, n := range []int{0, 1, 37, 400} {
				in, err := gen.Generate(gen.Config{Family: fam, Seed: seed, N: n, M: 4, Variant: model.Sectors})
				if err != nil {
					t.Fatalf("%s n=%d: %v", fam, n, err)
				}
				cases = append(cases, in)
			}
		}
	}
	for seed := int64(1); seed <= 8; seed++ {
		cases = append(cases, tiedInstance(seed, 60))
	}
	opt := core.Options{Seed: 3}
	for k, in := range cases {
		for trial := int64(0); trial < 3; trial++ {
			if trial > 0 {
				in = shuffleAntennas(shuffleCustomers(in, trial), trial)
			}
			fp, err := NewFingerprint(in, opt, "greedy")
			if err != nil {
				t.Fatal(err)
			}
			key, cust, ant := refFingerprint(in, opt, "greedy")
			if fp.Key() != key || !slices.Equal(fp.cust, cust) || !slices.Equal(fp.ant, ant) {
				t.Fatalf("case %d (%s) trial %d: got key %s cust %v ant %v, reference %s %v %v",
					k, in.Name, trial, fp.Key(), fp.cust, fp.ant, key, cust, ant)
			}
		}
	}
}
