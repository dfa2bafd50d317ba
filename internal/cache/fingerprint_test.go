package cache

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"sectorpack/internal/core"
	"sectorpack/internal/gen"
	"sectorpack/internal/model"
)

func fpKey(t *testing.T, in *model.Instance, opt core.Options, solver string) string {
	t.Helper()
	fp, err := NewFingerprint(in, opt, solver)
	if err != nil {
		t.Fatalf("NewFingerprint: %v", err)
	}
	return fp.Key()
}

func testInstance(seed int64) *model.Instance {
	return gen.MustGenerate(gen.Config{Family: gen.Uniform, Seed: seed, N: 24, M: 3, Variant: model.Sectors})
}

// shuffleCustomers returns a deep copy with the customer slice permuted
// and re-normalized (IDs must equal slice positions to stay valid).
func shuffleCustomers(in *model.Instance, seed int64) *model.Instance {
	out := in.Clone()
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(out.Customers), func(i, j int) {
		out.Customers[i], out.Customers[j] = out.Customers[j], out.Customers[i]
	})
	return out.Normalize()
}

func shuffleAntennas(in *model.Instance, seed int64) *model.Instance {
	out := in.Clone()
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(out.Antennas), func(i, j int) {
		out.Antennas[i], out.Antennas[j] = out.Antennas[j], out.Antennas[i]
	})
	return out.Normalize()
}

// TestFingerprintPermutationInvariant: the key is a function of the
// instance's *content*, not its slice order — shuffling customers or
// antennas (with IDs renumbered to stay valid) must not move it.
func TestFingerprintPermutationInvariant(t *testing.T) {
	in := testInstance(3)
	opt := core.Options{Seed: 1}
	base := fpKey(t, in, opt, "greedy")
	for trial := int64(0); trial < 10; trial++ {
		if got := fpKey(t, shuffleCustomers(in, trial), opt, "greedy"); got != base {
			t.Fatalf("customer shuffle (seed %d) moved the key: %s != %s", trial, got, base)
		}
		if got := fpKey(t, shuffleAntennas(in, trial), opt, "greedy"); got != base {
			t.Fatalf("antenna shuffle (seed %d) moved the key: %s != %s", trial, got, base)
		}
		both := shuffleAntennas(shuffleCustomers(in, trial), trial+100)
		if got := fpKey(t, both, opt, "greedy"); got != base {
			t.Fatalf("double shuffle (seed %d) moved the key", trial)
		}
	}
}

// TestFingerprintIgnoresCosmetics: the instance Name and the two
// encodings of "unbounded range" are semantically irrelevant and must not
// move the key.
func TestFingerprintIgnoresCosmetics(t *testing.T) {
	in := testInstance(4)
	opt := core.Options{Seed: 1}
	base := fpKey(t, in, opt, "greedy")

	renamed := in.Clone()
	renamed.Name = "something-else"
	if got := fpKey(t, renamed, opt, "greedy"); got != base {
		t.Errorf("instance Name moved the key")
	}

	unbounded := in.Clone()
	unbounded.Antennas[0].Range = 0 // unbounded, encoding 1
	k0 := fpKey(t, unbounded, opt, "greedy")
	unbounded.Antennas[0].Range = -1 // unbounded, encoding 2
	if got := fpKey(t, unbounded, opt, "greedy"); got != k0 {
		t.Errorf("equivalent unbounded-range encodings hash differently")
	}
	unbounded.Antennas[0].Range = math.Inf(1) // unbounded, encoding 3
	if got := fpKey(t, unbounded, opt, "greedy"); got != k0 {
		t.Errorf("+Inf range hashes differently from other unbounded encodings")
	}
	if k0 == base {
		t.Errorf("making antenna 0 unbounded did not move the key")
	}
}

// TestFingerprintSensitiveToInstanceContent: one demand unit, one profit
// unit, a nudged coordinate, the variant, and the solver name each change
// the key.
func TestFingerprintSensitiveToInstanceContent(t *testing.T) {
	in := testInstance(5)
	opt := core.Options{Seed: 1}
	base := fpKey(t, in, opt, "greedy")

	mutations := map[string]func(*model.Instance){
		"demand+1":     func(m *model.Instance) { m.Customers[7].Demand++ },
		"profit+1":     func(m *model.Instance) { m.Customers[7].Profit++ },
		"theta-nudge":  func(m *model.Instance) { m.Customers[7].Theta += 1e-9 },
		"r-nudge":      func(m *model.Instance) { m.Customers[7].R += 1e-9 },
		"rho-nudge":    func(m *model.Instance) { m.Antennas[1].Rho += 1e-9 },
		"capacity+1":   func(m *model.Instance) { m.Antennas[1].Capacity++ },
		"range-nudge":  func(m *model.Instance) { m.Antennas[1].Range += 1e-9 },
		"minrange-set": func(m *model.Instance) { m.Antennas[1].MinRange = 0.01 },
		"drop-cust":    func(m *model.Instance) { m.Customers = m.Customers[:len(m.Customers)-1] },
	}
	for name, mutate := range mutations {
		mut := in.Clone()
		mutate(mut)
		if got := fpKey(t, mut, opt, "greedy"); got == base {
			t.Errorf("mutation %q did not move the key", name)
		}
	}
	variant := in.Clone()
	variant.Variant = model.Angles
	for j := range variant.Antennas {
		variant.Antennas[j].Range = 0
	}
	varKey := fpKey(t, variant, opt, "greedy")
	sameShape := variant.Clone()
	sameShape.Variant = model.Sectors
	if got := fpKey(t, sameShape, opt, "greedy"); got == varKey {
		t.Errorf("variant change did not move the key")
	}
	if got := fpKey(t, in, opt, "localsearch"); got == base {
		t.Errorf("solver name did not move the key")
	}
}

// optionsLeaves enumerates every leaf field of core.Options (recursing
// into nested structs) as dotted paths with a mutator that flips just that
// field. It is the future-proofing half of the sensitivity test: a field
// added to core.Options shows up here automatically, and if canonOptions
// does not hash it the flip will not move the key and the test fails.
func optionsLeaves(t *testing.T) map[string]func(*core.Options) {
	t.Helper()
	leaves := map[string]func(*core.Options){}
	var walk func(prefix string, path []int, typ reflect.Type)
	walk = func(prefix string, path []int, typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			fieldPath := append(append([]int(nil), path...), i)
			name := prefix + f.Name
			if f.Type.Kind() == reflect.Struct {
				walk(name+".", fieldPath, f.Type)
				continue
			}
			leaves[name] = func(o *core.Options) {
				v := reflect.ValueOf(o).Elem().FieldByIndex(fieldPath)
				switch v.Kind() {
				case reflect.Bool:
					v.SetBool(!v.Bool())
				case reflect.Int, reflect.Int64:
					v.SetInt(v.Int() + 3)
				case reflect.Float64:
					v.SetFloat(v.Float() + 0.125)
				default:
					t.Fatalf("optionsLeaves: unhandled kind %v for field %s — extend the walker", v.Kind(), name)
				}
			}
		}
	}
	walk("", nil, reflect.TypeOf(core.Options{}))
	return leaves
}

// TestFingerprintSensitiveToEveryOptionsField walks core.Options by
// reflection and asserts that flipping any single leaf field — including
// fields of the nested knapsack.Options and exact.Limits — yields a
// different key. This is the guard that keeps canonOptions in sync with
// core.Options: a new field that is not hashed fails here, not in
// production as silently aliased cache entries.
func TestFingerprintSensitiveToEveryOptionsField(t *testing.T) {
	in := testInstance(6)
	base := fpKey(t, in, core.Options{Seed: 1}, "greedy")
	leaves := optionsLeaves(t)
	if len(leaves) < 4 {
		t.Fatalf("expected >= 4 Options leaf fields, found %d — walker broken?", len(leaves))
	}
	for name, flip := range leaves {
		opt := core.Options{Seed: 1}
		flip(&opt)
		if got := fpKey(t, in, opt, "greedy"); got == base {
			t.Errorf("flipping Options.%s did not move the key — add it to canonOptions", name)
		}
	}
}

// TestFingerprintRemapRoundTrip: toCanonical/fromCanonical invert each
// other for the fingerprint's own ordering, and remapping a solution
// cached under one ordering onto a shuffled duplicate stays feasible with
// the same profit.
func TestFingerprintRemapRoundTrip(t *testing.T) {
	in := testInstance(7)
	opt := core.Options{Seed: 1}
	solver, err := core.Get("greedy")
	if err != nil {
		t.Fatal(err)
	}
	sol, err := solver(context.Background(), in, opt)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := NewFingerprint(in, opt, "greedy")
	if err != nil {
		t.Fatal(err)
	}
	round := fp.fromCanonical(fp.toCanonical(sol))
	if fmt.Sprint(round.Assignment) != fmt.Sprint(sol.Assignment) {
		t.Fatalf("remap round trip not identity:\n got  %v\n want %v", round.Assignment, sol.Assignment)
	}

	perm := shuffleCustomers(shuffleAntennas(in, 99), 42)
	fp2, err := NewFingerprint(perm, opt, "greedy")
	if err != nil {
		t.Fatal(err)
	}
	if fp2.Key() != fp.Key() {
		t.Fatalf("shuffled duplicate has a different key")
	}
	mapped := fp2.fromCanonical(fp.toCanonical(sol))
	mapped.Profit = mapped.Assignment.Profit(perm)
	if err := mapped.Assignment.Check(perm); err != nil {
		t.Fatalf("remapped solution infeasible on shuffled duplicate: %v", err)
	}
	if mapped.Profit != sol.Profit {
		t.Fatalf("remapped profit %d != original %d", mapped.Profit, sol.Profit)
	}
}

// TestRoutingKeyMatchesFingerprint pins the routing contract ISSUE 9's
// proxy relies on: the exported RoutingKey is exactly the cache key the
// daemon computes, and permuted duplicates route identically — so the
// shard a request hashes to is the shard whose LRU holds its answer.
func TestRoutingKeyMatchesFingerprint(t *testing.T) {
	in := testInstance(31)
	opt := core.Options{Seed: 7}
	key, err := RoutingKey(in, opt, "greedy")
	if err != nil {
		t.Fatalf("RoutingKey: %v", err)
	}
	if want := fpKey(t, in, opt, "greedy"); key != want {
		t.Fatalf("RoutingKey %s != Fingerprint.Key %s", key, want)
	}
	for trial := int64(0); trial < 5; trial++ {
		dup := shuffleAntennas(shuffleCustomers(in, trial), trial+50)
		got, err := RoutingKey(dup, opt, "greedy")
		if err != nil {
			t.Fatalf("RoutingKey(shuffled): %v", err)
		}
		if got != key {
			t.Fatalf("permuted duplicate routes elsewhere: %s != %s", got, key)
		}
	}
	other, err := RoutingKey(in, opt, "localsearch")
	if err != nil {
		t.Fatal(err)
	}
	if other == key {
		t.Fatal("solver name does not move the routing key")
	}
}
