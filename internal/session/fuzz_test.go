package session

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"

	"sectorpack/internal/core"
	"sectorpack/internal/faultfs"
	"sectorpack/internal/gen"
	"sectorpack/internal/model"
)

// deltaFromBytes decodes a fuzz payload into a delta against an n-customer,
// m-antenna instance: each 4-byte chunk becomes one operation. Duplicate
// targets within an operation list are skipped (Delta.Validate rejects
// them; the fuzzer should spend its budget past the validator, not on it).
func deltaFromBytes(data []byte, n, m int) model.Delta {
	var d model.Delta
	usedC := map[int]bool{}
	usedR := map[int]bool{}
	usedA := map[int]bool{}
	for ; len(data) >= 4; data = data[4:] {
		op, b1, b2, b3 := data[0], int(data[1]), int(data[2]), int(data[3])
		switch op % 4 {
		case 0:
			if n == 0 {
				continue
			}
			id := b1 % n
			if !usedR[id] {
				usedR[id] = true
				d.Remove = append(d.Remove, id)
			}
		case 1:
			d.Add = append(d.Add, model.Customer{
				Theta:  float64(b1) / 256 * 2 * math.Pi,
				R:      float64(b2) / 256 * 10,
				Demand: 1 + int64(b3%7),
			})
		case 2:
			if n == 0 {
				continue
			}
			id := b1 % n
			if !usedC[id] {
				usedC[id] = true
				d.SetDemand = append(d.SetDemand, model.DemandChange{
					Customer: id,
					Demand:   1 + int64(b2%9),
					Profit:   int64(b3 % 17), // 0 = default-to-demand path
				})
			}
		case 3:
			if m == 0 {
				continue
			}
			id := b1 % m
			if !usedA[id] {
				usedA[id] = true
				d.SetCapacity = append(d.SetCapacity, model.CapacityChange{
					Antenna:  id,
					Capacity: int64(b2)*4 + int64(b3),
				})
			}
		}
	}
	return d
}

// FuzzApplyDelta drives the apply/materialize agreement end to end: the
// fuzz payload is split into two deltas applied in sequence to a session,
// and after each one (a) the session's instance must equal the
// independently materialized one byte for byte, and (b) the session's
// incremental answer must be bit-identical to a from-scratch greedy solve
// of that materialization — the same contract the churn differential suite
// checks on generated traces, here under adversarial deltas (including
// ones that churn a customer the previous delta just renumbered).
func FuzzApplyDelta(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 0, 0})
	f.Add([]byte{1, 100, 200, 3, 2, 5, 4, 0})
	f.Add([]byte{3, 1, 9, 9, 0, 0, 0, 0, 1, 50, 50, 2})
	f.Add([]byte{2, 7, 3, 0, 0, 7, 0, 0}) // re-price and remove the same customer
	base := gen.MustGenerate(gen.Config{Family: gen.Uniform, Seed: 17, N: 24, M: 3, Bands: 3, Tightness: 2, ProfitSpread: 0.3})
	solver, err := core.Get("greedy")
	if err != nil {
		f.Fatal(err)
	}
	opt := core.Options{Seed: 1, SkipBound: true}
	f.Fuzz(func(t *testing.T, data []byte) {
		half := len(data) / 2
		s, err := New(context.Background(), base, Options{Core: opt})
		if err != nil {
			t.Fatal(err)
		}
		cur := base.Clone().Normalize()
		for step, payload := range [][]byte{data[:half], data[half:]} {
			d := deltaFromBytes(payload, cur.N(), cur.M())
			mat, merr := model.ApplyDelta(cur, d)
			sol, aerr := s.Apply(context.Background(), d)
			if (merr == nil) != (aerr == nil) {
				t.Fatalf("step %d: materialize err %v vs apply err %v", step, merr, aerr)
			}
			if merr != nil {
				continue // both rejected; session state untouched by contract
			}
			cur = mat
			if got, want := instanceJSON(t, s.Instance()), instanceJSON(t, mat); got != want {
				t.Fatalf("step %d: session instance diverged from materialization", step)
			}
			want, err := solver(context.Background(), mat, opt)
			if err != nil {
				t.Fatalf("step %d: from-scratch solve: %v", step, err)
			}
			if got, w := solutionString(sol), solutionString(want); got != w {
				t.Fatalf("step %d: incremental answer drifted:\n got  %s\n want %s", step, got, w)
			}
		}
	})
}

// FuzzJournalReplay drives the crash-recovery contract under adversarial
// delta traces AND adversarial tears at once: the fuzz payload becomes a
// sequence of deltas journaled as they are applied, the journal file is cut
// at a fuzz-chosen byte offset, and recovery of the cut file must yield an
// exact prefix of the applied deltas whose replayed session is bit-identical
// — instance and solution — to independently materializing and solving that
// prefix from scratch. A cut deep enough to tear the create record must be
// rejected outright, never half-recovered.
func FuzzJournalReplay(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{0, 3, 0, 0, 1, 100, 200, 3}, uint16(9999))
	f.Add([]byte{3, 1, 9, 9, 2, 5, 4, 0}, uint16(17))
	f.Add([]byte{1, 50, 50, 2, 0, 0, 0, 0}, uint16(300))
	base := gen.MustGenerate(gen.Config{Family: gen.Uniform, Seed: 19, N: 18, M: 3, Bands: 3, Tightness: 2, ProfitSpread: 0.3})
	solver, err := core.Get("greedy")
	if err != nil {
		f.Fatal(err)
	}
	opt := core.Options{Seed: 1, SkipBound: true}
	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		path := filepath.Join(t.TempDir(), "s.journal")
		j, err := CreateJournal(faultfs.OS, path, Options{Core: opt}, base, 1)
		if err != nil {
			t.Fatal(err)
		}
		cur := base.Clone().Normalize()
		var applied []model.Delta
		half := len(data) / 2
		for _, payload := range [][]byte{data[:half], data[half:]} {
			d := deltaFromBytes(payload, cur.N(), cur.M())
			next, err := model.ApplyDelta(cur, d)
			if err != nil {
				continue // rejected deltas never advance state, so never journal
			}
			cur = next
			if err := j.AppendDelta(d, ""); err != nil {
				t.Fatal(err)
			}
			applied = append(applied, d)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		c := int(cut) % (len(raw) + 1)
		if err := os.WriteFile(path, raw[:c], 0o644); err != nil {
			t.Fatal(err)
		}

		rec, err := readJournal(faultfs.OS, path)
		if err != nil {
			return // create record torn: the session cleanly does not exist
		}
		n := len(rec.Deltas)
		if n > len(applied) {
			t.Fatalf("cut %d: recovered %d deltas, only %d were journaled", c, n, len(applied))
		}
		s, err := rec.replay(context.Background())
		if err != nil {
			t.Fatalf("cut %d: replay: %v", c, err)
		}
		mat := base.Clone().Normalize()
		for i := 0; i < n; i++ {
			next, err := model.ApplyDelta(mat, applied[i])
			if err != nil {
				t.Fatalf("cut %d: re-materialize delta %d: %v", c, i, err)
			}
			mat = next
		}
		if got, want := instanceJSON(t, s.Instance()), instanceJSON(t, mat); got != want {
			t.Fatalf("cut %d: recovered instance is not the %d-delta prefix materialization", c, n)
		}
		want, err := solver(context.Background(), mat, opt)
		if err != nil {
			t.Fatalf("cut %d: from-scratch solve: %v", c, err)
		}
		if got, w := solutionString(s.Solution()), solutionString(want); got != w {
			t.Fatalf("cut %d: recovered solution drifted:\n got  %s\n want %s", c, got, w)
		}
	})
}
