package session

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"sectorpack/internal/core"
	"sectorpack/internal/exact"
	"sectorpack/internal/faultfs"
	"sectorpack/internal/gen"
	"sectorpack/internal/model"
)

// journalTrace is the churn scenario the journal tests share: small enough
// for a per-operation crash matrix, banded so the incremental path fires.
func journalTrace() *model.Trace {
	return gen.MustGenerateTrace(gen.ChurnConfig{
		Base:          gen.Config{Family: gen.Uniform, Seed: 41, N: 30, M: 4, Bands: 3, Tightness: 2, ProfitSpread: 0.4},
		Steps:         4,
		Rate:          0.1,
		Localized:     true,
		CapacityEvery: 2,
	})
}

// writeJournal creates a journal for the trace and appends its first k
// deltas with keys "idem-0".."idem-k-1".
func writeJournal(t *testing.T, fsys faultfs.FS, path string, tr *model.Trace, k, syncEvery int) {
	t.Helper()
	opt := Options{Solver: "greedy", Core: core.Options{Seed: 3}}
	j, err := CreateJournal(fsys, path, opt, tr.Instance, syncEvery)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		if err := j.AppendDelta(tr.Deltas[i], fmt.Sprintf("idem-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// fromScratch solves the trace's step-k materialization directly.
func fromScratch(t *testing.T, tr *model.Trace, k int, opt core.Options) string {
	t.Helper()
	mat, err := tr.Materialize(k)
	if err != nil {
		t.Fatal(err)
	}
	solver, err := core.Get("greedy")
	if err != nil {
		t.Fatal(err)
	}
	sol, err := solver(context.Background(), mat, opt)
	if err != nil {
		t.Fatal(err)
	}
	return solutionString(sol)
}

func TestJournalRoundTripAndReplay(t *testing.T) {
	tr := journalTrace()
	path := filepath.Join(t.TempDir(), "s.journal")
	writeJournal(t, faultfs.OS, path, tr, len(tr.Deltas), 1)

	rec, err := readJournal(faultfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if rec.TruncatedBytes != 0 {
		t.Fatalf("clean journal reported %d truncated bytes", rec.TruncatedBytes)
	}
	if rec.Solver != "greedy" || rec.Core.Seed != 3 {
		t.Fatalf("recovered options %q/%+v", rec.Solver, rec.Core)
	}
	if len(rec.Deltas) != len(tr.Deltas) {
		t.Fatalf("recovered %d deltas, want %d", len(rec.Deltas), len(tr.Deltas))
	}
	s, err := rec.replay(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.lastKey, fmt.Sprintf("idem-%d", len(tr.Deltas)-1); got != want {
		t.Fatalf("last idempotency key %q, want %q", got, want)
	}
	if got, want := solutionString(s.Solution()), fromScratch(t, tr, len(tr.Deltas), rec.Core); got != want {
		t.Fatalf("replayed session drifted from from-scratch solve:\n got  %s\n want %s", got, want)
	}
	mat, err := tr.Materialize(len(tr.Deltas))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := instanceJSON(t, s.Instance()), instanceJSON(t, mat); got != want {
		t.Fatal("replayed session instance diverged from materialization")
	}
}

// TestJournalSyncCadence pins the group-commit contract on the recorded op
// log: syncEvery=1 fsyncs once per append; syncEvery=3 batches, with Close
// flushing the remainder. (The injector cannot simulate page-cache loss, so
// the cadence is the testable face of the durability guarantee.)
func TestJournalSyncCadence(t *testing.T) {
	tr := journalTrace()
	countSyncs := func(syncEvery int) (syncs int) {
		inj := faultfs.NewInjector(faultfs.OS)
		writeJournal(t, inj, filepath.Join(t.TempDir(), "s.journal"), tr, 4, syncEvery)
		for _, r := range inj.Log() {
			if r.Op == faultfs.OpSync {
				syncs++
			}
		}
		return syncs
	}
	// 1 create-record sync + 4 per-append syncs.
	if got := countSyncs(1); got != 5 {
		t.Fatalf("syncEvery=1: %d fsyncs for 4 appends, want 5", got)
	}
	// 1 create-record sync + one batch of 3 + Close flushing the 4th.
	if got := countSyncs(3); got != 3 {
		t.Fatalf("syncEvery=3: %d fsyncs for 4 appends, want 3", got)
	}
}

// TestJournalTornTail cuts bytes off the end of a clean journal at every
// possible length: recovery must always yield an exact prefix of the delta
// stream (never an error past the create record, never a corrupt record),
// truncate the file back to that prefix, and leave it appendable.
func TestJournalTornTail(t *testing.T) {
	tr := journalTrace()
	dir := t.TempDir()
	clean := filepath.Join(dir, "clean.journal")
	writeJournal(t, faultfs.OS, clean, tr, len(tr.Deltas), 1)
	raw, err := os.ReadFile(clean)
	if err != nil {
		t.Fatal(err)
	}

	opt := core.Options{Seed: 3}
	prevPrefix := -1
	for cut := len(raw) - 1; cut >= 0; cut-- {
		path := filepath.Join(dir, "torn.journal")
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := readJournal(faultfs.OS, path)
		if err != nil {
			// Acceptable only when the create record itself is torn: the
			// session then cleanly does not exist.
			continue
		}
		if rec.TruncatedBytes == 0 && cut != len(raw) {
			// A shorter file that parses fully must be an exact frame
			// boundary; fine.
		}
		k := len(rec.Deltas)
		if k > len(tr.Deltas) {
			t.Fatalf("cut %d: recovered %d deltas from a %d-delta journal", cut, k, len(tr.Deltas))
		}
		// The file must now be clean: a second read recovers the same
		// prefix with nothing left to truncate.
		rec2, err := readJournal(faultfs.OS, path)
		if err != nil {
			t.Fatalf("cut %d: re-read after truncation: %v", cut, err)
		}
		if len(rec2.Deltas) != k || rec2.TruncatedBytes != 0 {
			t.Fatalf("cut %d: re-read recovered %d deltas (%d truncated), want %d (0)",
				cut, len(rec2.Deltas), rec2.TruncatedBytes, k)
		}
		// Replay only on prefix-length changes — replaying every cut would
		// re-solve the same states hundreds of times for no extra coverage.
		if k != prevPrefix {
			prevPrefix = k
			s, err := rec.replay(context.Background())
			if err != nil {
				t.Fatalf("cut %d: replay: %v", cut, err)
			}
			if got, want := solutionString(s.Solution()), fromScratch(t, tr, k, opt); got != want {
				t.Fatalf("cut %d (%d deltas): replay drifted:\n got  %s\n want %s", cut, k, got, want)
			}
			// The truncated journal accepts further appends.
			if k < len(tr.Deltas) {
				j, err := openAppend(faultfs.OS, path, 1)
				if err != nil {
					t.Fatalf("cut %d: reopen: %v", cut, err)
				}
				if err := j.AppendDelta(tr.Deltas[k], "idem-resumed"); err != nil {
					t.Fatal(err)
				}
				if err := j.Close(); err != nil {
					t.Fatal(err)
				}
				rec3, err := readJournal(faultfs.OS, path)
				if err != nil {
					t.Fatalf("cut %d: read after resumed append: %v", cut, err)
				}
				if len(rec3.Deltas) != k+1 || rec3.Deltas[k].IdemKey != "idem-resumed" {
					t.Fatalf("cut %d: resumed journal has %d deltas, want %d ending in idem-resumed",
						cut, len(rec3.Deltas), k+1)
				}
			}
		}
	}
}

// TestJournalCorruptFrameEndsLog flips one byte inside the second delta
// frame: recovery keeps the create record and first delta, drops everything
// from the corrupt frame on, and truncates the file there.
func TestJournalCorruptFrameEndsLog(t *testing.T) {
	tr := journalTrace()
	path := filepath.Join(t.TempDir(), "s.journal")
	writeJournal(t, faultfs.OS, path, tr, 3, 1)
	clean, err := readJournal(faultfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Deltas) != 3 {
		t.Fatalf("setup: %d deltas", len(clean.Deltas))
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a byte near the end of the second-to-last frame's payload
	// (well past the create record and first delta).
	cleanLen := len(raw)
	raw[cleanLen-40] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := readJournal(faultfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Deltas) >= 3 {
		t.Fatalf("corrupt frame did not end the log: %d deltas recovered", len(rec.Deltas))
	}
	if rec.TruncatedBytes == 0 {
		t.Fatal("corruption not reflected in TruncatedBytes")
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() >= int64(cleanLen) {
		t.Fatalf("file not truncated: %d bytes, was %d", st.Size(), cleanLen)
	}
}

func TestJournalBadHeaderIsFatal(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string][]byte{
		"empty":       {},
		"short":       []byte("SPJ"),
		"wrong-magic": []byte("NOTJRNL\n\x01\x00\x00\x00\x00\x00\x00\x00"),
		"no-create":   []byte(journalMagic + "\x01\x00\x00\x00\x00\x00\x00\x00"),
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(dir, name)
			if err := os.WriteFile(path, content, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := readJournal(faultfs.OS, path); err == nil {
				t.Fatal("unusable journal accepted")
			}
		})
	}
}

// TestJournalCrashMatrix kills the writer at every filesystem operation of
// a create+append workload (syncEvery=1) and checks the recovery invariant
// on whatever survived: either readJournal rejects the file (the session
// cleanly does not exist) or it recovers an exact delta prefix whose replay
// is bit-identical to the from-scratch solve of that prefix's
// materialization. Never a corrupt session.
func TestJournalCrashMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("crash matrix is a long test")
	}
	tr := journalTrace()
	opt := core.Options{Seed: 3}
	appends := 3

	workload := func(fsys faultfs.FS, path string) error {
		j, err := CreateJournal(fsys, path, Options{Solver: "greedy", Core: opt}, tr.Instance, 1)
		if err != nil {
			return err
		}
		for i := 0; i < appends; i++ {
			if err := j.AppendDelta(tr.Deltas[i], fmt.Sprintf("idem-%d", i)); err != nil {
				return err
			}
		}
		return j.Close()
	}

	counter := faultfs.NewInjector(faultfs.OS)
	if err := workload(counter, filepath.Join(t.TempDir(), "s.journal")); err != nil {
		t.Fatal(err)
	}
	total := counter.Ops()
	if total < 6 {
		t.Fatalf("suspiciously few ops: %d", total)
	}

	replayed := map[int]bool{} // prefix lengths already replay-verified
	for k := int64(1); k <= total; k++ {
		path := filepath.Join(t.TempDir(), "s.journal")
		inj := faultfs.NewInjector(faultfs.OS, faultfs.Fault{N: k, Mode: faultfs.Crash})
		if err := workload(inj, path); err == nil {
			t.Fatalf("crash at op %d: workload reported success", k)
		}
		if !inj.Crashed() {
			t.Fatalf("crash at op %d did not fire", k)
		}
		rec, err := readJournal(faultfs.OS, path)
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				continue // crashed before the file existed: cleanly absent
			}
			continue // unusable journal: session cleanly not recovered
		}
		n := len(rec.Deltas)
		if n > appends {
			t.Fatalf("crash at op %d: recovered %d deltas, only %d were appended", k, n, appends)
		}
		if replayed[n] {
			continue
		}
		replayed[n] = true
		s, err := rec.replay(context.Background())
		if err != nil {
			t.Fatalf("crash at op %d: replay of recovered journal failed: %v", k, err)
		}
		if got, want := solutionString(s.Solution()), fromScratch(t, tr, n, opt); got != want {
			t.Fatalf("crash at op %d: recovered session (%d deltas) drifted:\n got  %s\n want %s",
				k, n, got, want)
		}
	}
}

// TestJournalAppendFailurePoisons: after a failed append or sync, every
// later call returns the same error — the owner must stop acknowledging
// deltas rather than let the journal and the live session diverge.
func TestJournalAppendFailurePoisons(t *testing.T) {
	tr := journalTrace()
	path := filepath.Join(t.TempDir(), "s.journal")
	// Fault the first delta append's write (the create record's write is
	// op 1; its sync op 2; dir sync op 3; delta write is the 2nd OpWrite).
	inj := faultfs.NewInjector(faultfs.OS, faultfs.Fault{Op: faultfs.OpWrite, N: 2, Mode: faultfs.Fail})
	j, err := CreateJournal(inj, path, Options{Solver: "greedy", Core: core.Options{Seed: 3}}, tr.Instance, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendDelta(tr.Deltas[0], "idem-0"); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("faulted append error %v, want ErrInjected", err)
	}
	if err := j.AppendDelta(tr.Deltas[1], "idem-1"); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("append after poison error %v, want the original ErrInjected", err)
	}
	if err := j.sync(); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("sync after poison error %v, want the original ErrInjected", err)
	}
}

// TestJournalParentFormatReplays pins that a journal whose create record
// carries the earlier, wider core.Options field set (the since-removed
// search budgets, at zero, beside today's fields) still reads and replays:
// json.Unmarshal ignores the unknown keys, and the replayed session equals
// New + Apply under today's Options bit for bit.
func TestJournalParentFormatReplays(t *testing.T) {
	tr := journalTrace()
	const oldCore = `{"Knapsack":{"Eps":0,"MaxBBNodes":0,"ForceApprox":false},` +
		`"ExactLimits":{"MaxTuples":200000,"MKPNodes":0},` +
		`"Seed":1,"RoundTrials":0,"LocalSearchRounds":0,"SkipBound":false}`
	inst, err := json.Marshal(tr.Instance)
	if err != nil {
		t.Fatal(err)
	}
	create := []byte(`{"kind":"create","solver":"greedy","core":` + oldCore + `,"instance":` + string(inst) + `}`)
	raw := append([]byte(journalMagic), binary.LittleEndian.AppendUint64(nil, journalVersion)...)
	raw = binary.LittleEndian.AppendUint32(raw, uint32(len(create)))
	raw = binary.LittleEndian.AppendUint32(raw, crc32.ChecksumIEEE(create))
	raw = append(raw, create...)
	for i := range tr.Deltas {
		frame, err := encodeFrame(journalRecord{Kind: "delta", Delta: &tr.Deltas[i], IdemKey: fmt.Sprintf("idem-%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		raw = append(raw, frame...)
	}
	path := filepath.Join(t.TempDir(), "parent.journal")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	rec, err := readJournal(faultfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	want := core.Options{Seed: 1, ExactLimits: exact.Limits{MaxTuples: 200000}}
	if rec.Solver != "greedy" || rec.Core != want || len(rec.Deltas) != len(tr.Deltas) || rec.TruncatedBytes != 0 {
		t.Fatalf("recovered %q %+v, %d deltas, %d truncated bytes; want greedy %+v, %d deltas, none truncated",
			rec.Solver, rec.Core, len(rec.Deltas), rec.TruncatedBytes, want, len(tr.Deltas))
	}
	replayed, err := rec.replay(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	live, err := New(context.Background(), tr.Instance, Options{Solver: "greedy", Core: want})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range tr.Deltas {
		if _, err := live.Apply(context.Background(), d); err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
	}
	got, exp := replayed.Solution(), live.Solution()
	if got.Profit != exp.Profit || math.Float64bits(got.UpperBound) != math.Float64bits(exp.UpperBound) ||
		got.Algorithm != exp.Algorithm || !slices.Equal(got.Assignment.Owner, exp.Assignment.Owner) ||
		len(got.Assignment.Orientation) != len(exp.Assignment.Orientation) {
		t.Fatalf("replayed %s\n want    %s", solutionString(got), solutionString(exp))
	}
	for k, a := range exp.Assignment.Orientation {
		if math.Float64bits(got.Assignment.Orientation[k]) != math.Float64bits(a) {
			t.Fatalf("antenna %d: replayed orientation %v, want %v", k, got.Assignment.Orientation[k], a)
		}
	}
}

// parentJournal is the journal of TestJournalBytesMatchParentFormat's
// trace as version 1 of the format lays it out, captured byte for byte
// from CreateJournal plus one AppendDelta per accepted delta.
const parentJournal = "\x53\x50\x4a\x52\x4e\x4c\x31\x0a\x01\x00\x00\x00\x00\x00\x00\x00" +
	"\x6a\x01\x00\x00\x8c\x28\x35\xfe" +
	`{"kind":"create","solver":"greedy","core":{"Knapsack":{"Eps":0},"ExactLimits":{"MaxTuples":0},"Seed":7,"SkipBound":false},"instance":{"variant":0,"customers":[{"id":0,"theta":0.5,"r":1,"demand":2,"profit":3},{"id":1,"theta":1.25,"r":2,"demand":1,"profit":0},{"id":2,"theta":4,"r":1.5,"demand":3,"profit":1}],"antennas":[{"id":0,"rho":1,"range":3,"capacity":4}]}}` +
	"\x66\x00\x00\x00\x24\xce\x88\xda" +
	`{"kind":"delta","delta":{"add":[{"id":0,"theta":0.75,"r":0.5,"demand":1,"profit":2}]},"idem_key":"k0"}` +
	"\x63\x00\x00\x00\xb6\x09\xb6\x86" +
	`{"kind":"delta","delta":{"set_capacity":[{"antenna":0,"capacity":5}],"remove":[1]},"idem_key":"k1"}` +
	"\x43\x00\x00\x00\x6f\x26\x32\x61" +
	`{"kind":"delta","delta":{"set_demand":[{"customer":0,"demand":4}]}}`

// TestJournalBytesMatchParentFormat pins the journal format: Create and
// Deliver — with a rejected delta and a same-key retry mixed in, neither of
// which may reach the journal — write exactly the bytes the parent format
// holds.
func TestJournalBytesMatchParentFormat(t *testing.T) {
	in := &model.Instance{
		Customers: []model.Customer{
			{ID: 0, Theta: 0.5, R: 1, Demand: 2, Profit: 3},
			{ID: 1, Theta: 1.25, R: 2, Demand: 1},
			{ID: 2, Theta: 4, R: 1.5, Demand: 3, Profit: 1},
		},
		Antennas: []model.Antenna{{ID: 0, Rho: 1, Range: 3, Capacity: 4}},
	}
	steps := []struct {
		d   model.Delta
		key string
	}{
		{model.Delta{Add: []model.Customer{{Theta: 0.75, R: 0.5, Demand: 1, Profit: 2}}}, "k0"},
		{model.Delta{Remove: []int{99}}, "bad"},
		{model.Delta{SetCapacity: []model.CapacityChange{{Antenna: 0, Capacity: 5}}, Remove: []int{1}}, "k1"},
		{model.Delta{SetCapacity: []model.CapacityChange{{Antenna: 0, Capacity: 5}}, Remove: []int{1}}, "k1"},
		{model.Delta{SetDemand: []model.DemandChange{{Customer: 0, Demand: 4}}}, ""},
	}
	path := filepath.Join(t.TempDir(), "pin.journal")
	s, err := Create(context.Background(), in, Options{Solver: "greedy", Core: core.Options{Seed: 7}}, faultfs.OS, path, 1)
	if err != nil {
		t.Fatal(err)
	}
	for k, st := range steps {
		_, replayed, err := s.Deliver(context.Background(), st.d, st.key)
		if rejected := st.key == "bad"; (err != nil) != rejected || replayed != (k == 3) {
			t.Fatalf("step %d: err %v, replayed %v", k, err, replayed)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != parentJournal {
		t.Fatalf("journal bytes changed:\n got  %q\n want %q", raw, parentJournal)
	}
}

// TestRecoverMatchesLiveAfterFailedSolve: Deliver journals a delta whose
// re-solve fails (exact over its customer limit) and keeps its key; a
// same-key retry re-solves without counting another delta. Recover
// rebuilds that state — uncommitted, same key, same counters but the
// retry's solve — and from there both sessions answer alike.
func TestRecoverMatchesLiveAfterFailedSolve(t *testing.T) {
	ctx := context.Background()
	base := gen.MustGenerate(gen.Config{Family: gen.Uniform, Seed: 5, N: 20, M: 1})
	grow := model.Delta{}
	for k := 0; k < 6; k++ {
		grow.Add = append(grow.Add, model.Customer{Theta: 0.3 * float64(k), R: 1, Demand: 1})
	}
	shrink := model.Delta{Remove: []int{0, 1, 2, 3}}
	path := filepath.Join(t.TempDir(), "s.journal")
	live, err := Create(ctx, base, Options{Solver: "exact", Core: core.Options{Seed: 1}}, faultfs.OS, path, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	for try := 0; try < 2; try++ {
		if _, replayed, err := live.Deliver(ctx, grow, "grow"); err == nil || replayed != (try == 1) {
			t.Fatalf("grow (try %d): err %v, replayed %v; want exact's error, a replay on the retry", try, err, replayed)
		}
	}
	if st := live.Stats(); st.Deltas != 1 || st.Solves != 3 {
		t.Fatalf("live stats %+v, want 1 delta and 3 solves", st)
	}

	// Recover from a copy, as a restart would, so the two sessions append
	// to journals of their own.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	restarted := filepath.Join(t.TempDir(), "s.journal")
	if err := os.WriteFile(restarted, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(ctx, faultfs.OS, restarted, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if st := rec.Stats(); st.Deltas != 1 || st.Solves != 2 || rec.committed || rec.lastKey != "grow" {
		t.Fatalf("recovered stats %+v, committed %v, key %q; want 1 delta, 2 solves, uncommitted, key grow",
			st, rec.committed, rec.lastKey)
	}
	if _, replayed, err := rec.Deliver(ctx, grow, "grow"); err == nil || !replayed {
		t.Fatalf("recovered retry: err %v, replayed %v; want exact's error on a replay", err, replayed)
	}
	for _, s := range []*Session{live, rec} {
		sol, replayed, err := s.Deliver(ctx, shrink, "shrink")
		if err != nil || replayed {
			t.Fatalf("shrink: err %v, replayed %v", err, replayed)
		}
		if got, want := solutionString(sol), solutionString(live.Solution()); got != want {
			t.Fatalf("recovered session drifted from the live one:\n got  %s\n want %s", got, want)
		}
	}
}
