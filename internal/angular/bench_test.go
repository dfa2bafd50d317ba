package angular

import (
	"context"
	"fmt"
	"testing"

	"sectorpack/internal/gen"
	"sectorpack/internal/knapsack"
	"sectorpack/internal/model"
)

// BenchmarkBestWindow measures one pruned best-window search on a warm
// Engine — the unit of work the greedy solver repeats per antenna step.
// The 100k-churn case is one band antenna of that tier (~2.5k in-range
// customers) with every other customer inactive, as midway through a
// greedy pass.
func BenchmarkBestWindow(b *testing.B) {
	run := func(name string, in *model.Instance, active []bool) {
		b.Run(name, func(b *testing.B) {
			eng := NewEngine(in)
			if _, err := eng.BestWindow(context.Background(), 0, active, knapsack.Options{}); err != nil {
				b.Fatal(err) // warm the sweep outside the timed loop
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.BestWindow(context.Background(), 0, active, knapsack.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, n := range []int{100, 400, 800} {
		in := gen.MustGenerate(gen.Config{
			Family: gen.Uniform, Variant: model.Sectors,
			Seed: 42, N: n, M: 1,
		})
		run(fmt.Sprintf("n%d", n), in, nil)
	}
	cfg, err := gen.Tier("100k-churn")
	if err != nil {
		b.Fatal(err)
	}
	in := gen.MustGenerate(cfg)
	active := make([]bool, in.N())
	for i := range active {
		active[i] = i%2 == 0
	}
	run("100k-churn", in, active)
}

// BenchmarkBestWindowCold includes the sweep construction, as paid by a
// one-shot caller that builds a new Engine per search.
func BenchmarkBestWindowCold(b *testing.B) {
	in := gen.MustGenerate(gen.Config{
		Family: gen.Uniform, Variant: model.Sectors,
		Seed: 42, N: 400, M: 1,
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewEngine(in).BestWindow(context.Background(), 0, nil, knapsack.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
