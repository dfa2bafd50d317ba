package angular

import (
	"context"
	"math"
	"testing"

	"sectorpack/internal/gen"
	"sectorpack/internal/model"
)

// largeDiffInstance is big enough (n*m >= prewarmParallelMin) that Prewarm
// takes its worker-pool path when more than one worker is allowed.
func largeDiffInstance(t *testing.T) *model.Instance {
	t.Helper()
	in := gen.MustGenerate(gen.Config{Family: gen.Hotspot, Seed: 9, N: 3000, M: 6, MinRange: 2})
	if in.N()*in.M() < prewarmParallelMin {
		t.Fatalf("instance too small to cross the parallel gate: %d < %d", in.N()*in.M(), prewarmParallelMin)
	}
	return in
}

// TestPrewarmScalarVsParallel checks that a parallel-prewarmed engine holds
// bit-identical sweeps and candidate lists to a scalar-prewarmed one: slot
// j's content must be a pure function of the view and antenna j, never of
// goroutine scheduling.
func TestPrewarmScalarVsParallel(t *testing.T) {
	in := largeDiffInstance(t)
	prewarm := func(workers int) *Engine {
		prev := SetMaxWorkers(workers)
		defer SetMaxWorkers(prev)
		e := NewEngine(in)
		if err := e.Prewarm(context.Background()); err != nil {
			t.Fatalf("Prewarm at %d workers: %v", workers, err)
		}
		return e
	}
	scalar := prewarm(1)
	parallel := prewarm(8)
	for j := 0; j < in.M(); j++ {
		s, p := scalar.sweeps[j], parallel.sweeps[j]
		if s == nil || p == nil {
			t.Fatalf("antenna %d: prewarm left a nil sweep (scalar=%v parallel=%v)", j, s == nil, p == nil)
		}
		if s.Len() != p.Len() {
			t.Fatalf("antenna %d: sweep lengths differ: %d vs %d", j, s.Len(), p.Len())
		}
		for k := 0; k < s.Len(); k++ {
			if s.ids[k] != p.ids[k] || math.Float64bits(s.thetas[k]) != math.Float64bits(p.thetas[k]) ||
				s.weights[k] != p.weights[k] || s.profits[k] != p.profits[k] ||
				s.density[k] != p.density[k] {
				t.Fatalf("antenna %d: sweeps diverge at position %d", j, k)
			}
		}
		sc, pc := scalar.cands[j], parallel.cands[j]
		if len(sc) != len(pc) {
			t.Fatalf("antenna %d: candidate counts differ: %d vs %d", j, len(sc), len(pc))
		}
		for k := range sc {
			if math.Float64bits(sc[k]) != math.Float64bits(pc[k]) {
				t.Fatalf("antenna %d: candidates diverge at %d: %v vs %v", j, k, sc[k], pc[k])
			}
		}
	}
}
