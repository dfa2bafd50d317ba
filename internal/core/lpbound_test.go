package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"sectorpack/internal/exact"
	"sectorpack/internal/gen"
	"sectorpack/internal/model"
)

func TestConfigLPBoundDominatesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	for trial := 0; trial < 12; trial++ {
		in := randInstance(rng, 3+rng.Intn(7), 1+rng.Intn(2), model.Sectors)
		bound, err := ConfigLPBound(in)
		if err != nil {
			t.Fatalf("ConfigLPBound: %v", err)
		}
		opt, err := exact.Solve(context.Background(), in, exact.Limits{})
		if err != nil {
			t.Fatalf("exact: %v", err)
		}
		if bound < float64(opt.Profit)-1e-6 {
			t.Fatalf("config LP bound %v below OPT %d", bound, opt.Profit)
		}
	}
}

func TestConfigLPBoundNoLooserThanSimple(t *testing.T) {
	rng := rand.New(rand.NewSource(132))
	for trial := 0; trial < 10; trial++ {
		in := randInstance(rng, 5+rng.Intn(15), 1+rng.Intn(3), model.Sectors)
		cfg, err := ConfigLPBound(in)
		if err != nil {
			t.Fatalf("ConfigLPBound: %v", err)
		}
		simple := UpperBound(in)
		if cfg > simple+1e-6 {
			t.Fatalf("config bound %v looser than simple bound %v", cfg, simple)
		}
	}
}

func TestConfigLPBoundTighterWhenAntennasCompete(t *testing.T) {
	// Two antennas both covering the same single cluster: the simple bound
	// double-counts the cluster, the configuration LP does not.
	in := &model.Instance{
		Variant: model.Angles,
		Customers: []model.Customer{
			{Theta: 0.10, R: 1, Demand: 4},
			{Theta: 0.15, R: 1, Demand: 4},
			{Theta: 0.20, R: 1, Demand: 4},
		},
		Antennas: []model.Antenna{
			{Rho: 1, Capacity: 100},
			{Rho: 1, Capacity: 100},
		},
	}
	in.Normalize()
	simple := UpperBound(in)
	cfg, err := ConfigLPBound(in)
	if err != nil {
		t.Fatalf("ConfigLPBound: %v", err)
	}
	// Both bounds clip at the total profit of 12 here (UpperBound takes a
	// min with it), so assert dominance and achievability.
	if cfg > simple+1e-6 {
		t.Fatalf("config bound %v above simple %v", cfg, simple)
	}
	if cfg < 12-1e-6 {
		t.Fatalf("config bound %v below the achievable optimum 12", cfg)
	}
	// The value computed before the LP read its windows from an engine.
	if got, want := math.Float64bits(cfg), uint64(0x4028000000000000); got != want {
		t.Fatalf("config bound bits %#x, want %#x", got, want)
	}
}

func TestConfigLPBoundCapacitySplit(t *testing.T) {
	// One cluster, two antennas with capacity 5 each, total demand 12:
	// OPT serves 10 (both antennas on the cluster). Simple bound clips at
	// min(12, 5+5) = 10; config LP must agree, not exceed.
	in := &model.Instance{
		Variant: model.Angles,
		Customers: []model.Customer{
			{Theta: 0.10, R: 1, Demand: 4},
			{Theta: 0.15, R: 1, Demand: 4},
			{Theta: 0.20, R: 1, Demand: 4},
		},
		Antennas: []model.Antenna{
			{Rho: 1, Capacity: 5},
			{Rho: 1, Capacity: 5},
		},
	}
	in.Normalize()
	cfg, err := ConfigLPBound(in)
	if err != nil {
		t.Fatalf("ConfigLPBound: %v", err)
	}
	if cfg > 10+1e-6 {
		t.Fatalf("config bound %v should respect the capacity cap 10", cfg)
	}
	// The value computed before the LP read its windows from an engine.
	if got, want := math.Float64bits(cfg), uint64(0x4024000000000000); got != want {
		t.Fatalf("config bound bits %#x, want %#x", got, want)
	}
}

// TestConfigLPBoundRefusesOversizedEarly pins that the variable cap is
// checked while the windows are enumerated: an instance whose LP would
// have about 2.5 million variables is refused without materializing them
// (enumerating them all first allocated over 300 MB here).
func TestConfigLPBoundRefusesOversizedEarly(t *testing.T) {
	in := gen.MustGenerate(gen.Config{Family: gen.Uniform, Seed: 1, N: 3000, M: 4})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ConfigLPBound(in)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprint(MaxConfigLPVars)) {
		t.Fatalf("err = %v, want the %d-variable cap error", err, MaxConfigLPVars)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 32<<20 {
		t.Fatalf("refusing the instance allocated %d bytes, want <= %d", grew, 32<<20)
	}
}

func TestConfigLPBoundEmpty(t *testing.T) {
	in := (&model.Instance{Variant: model.Angles}).Normalize()
	bound, err := ConfigLPBound(in)
	if err != nil || bound != 0 {
		t.Fatalf("empty: %v, %v", bound, err)
	}
}
