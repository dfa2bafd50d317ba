package session

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"sectorpack/internal/core"
	"sectorpack/internal/faultfs"
	"sectorpack/internal/model"
)

// The session journal is an append-only write-ahead log of one session's
// life: a create record (solver, core options, base instance) followed by
// one delta record per delta that advanced the instance. Replaying it
// through New and the same advance-then-commit steps Deliver runs rebuilds
// the session's state — and, by the package's determinism contract, a
// solution bit-identical to a from-scratch solve of the materialized
// instance.
//
// On disk it is faultfs's record format: header magic "SPJRNL1\n" and a
// version, then one frame per record, each a JSON journalRecord. A crash
// mid-append leaves a torn final frame. Recovery (readJournal) stops at the
// first bad frame — torn or CRC-bad alike, since boundaries past a corrupt
// length are guesses — truncates the file back to the last good frame, and
// returns the records before it: the torn suffix is a delta whose response
// was never durably acknowledged, so dropping it is correct.
//
// Durability cadence: the create record is always fsynced (and the journal
// directory synced) before CreateJournal returns — a session must not be
// acknowledged before its journal exists on disk. Delta appends group-commit:
// with syncEvery = n, an fsync is issued once n appends accumulate, so at
// most n-1 acknowledged deltas can be lost to a crash (with the default
// n = 1, none). Sync and Close flush whatever is pending.
const (
	journalMagic   = "SPJRNL1\n"
	journalVersion = 1
)

// ErrJournal marks every journal write failure (create, append, sync),
// after which the journal no longer matches the live session, so the
// session must stop serving. The errors' text starts "journal: ".
var ErrJournal = errors.New("journal")

// journalRecord is the JSON payload of one frame. Kind "create" carries
// Solver/Core/Instance; kind "delta" carries Delta/IdemKey.
type journalRecord struct {
	Kind     string          `json:"kind"`
	Solver   string          `json:"solver,omitempty"`
	Core     *core.Options   `json:"core,omitempty"`
	Instance *model.Instance `json:"instance,omitempty"`
	Delta    *model.Delta    `json:"delta,omitempty"`
	IdemKey  string          `json:"idem_key,omitempty"`
}

// Journal is the append side of one session's WAL. It is not safe for
// concurrent use; the owner must serialize appends the same way it
// serializes Session.Apply. A nil *Journal journals nothing: every method
// is a no-op.
type Journal struct {
	f         faultfs.File
	syncEvery int
	pending   int   // appended frames not yet fsynced
	broken    error // first write/sync failure; poisons all later ops
}

func encodeFrame(rec journalRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("%w: encode %s record: %w", ErrJournal, rec.Kind, err)
	}
	return faultfs.AppendFrame(nil, payload), nil
}

// CreateJournal starts a new journal at path (truncating any previous file
// there), writes the create record, and makes both the record and the
// file's directory entry durable before returning. syncEvery <= 1 fsyncs
// every delta append; n > 1 group-commits every n appends.
func CreateJournal(fsys faultfs.FS, path string, opt Options, in *model.Instance, syncEvery int) (*Journal, error) {
	if in == nil {
		return nil, fmt.Errorf("journal: nil instance")
	}
	if opt.Solver == "" {
		opt.Solver = "greedy"
	}
	frame, err := encodeFrame(journalRecord{
		Kind:     "create",
		Solver:   opt.Solver,
		Core:     &opt.Core,
		Instance: in,
	})
	if err != nil {
		return nil, err
	}
	f, err := fsys.Create(path)
	if err != nil {
		return nil, fmt.Errorf("%w: create %s: %w", ErrJournal, path, err)
	}
	fail := func(err error) (*Journal, error) {
		// Best-effort cleanup of the half-written file: err already tells
		// the caller the journal was never created, and a leftover file is
		// harmless — recovery rejects it as torn.
		_ = f.Close()
		_ = fsys.Remove(path)
		return nil, err
	}
	if _, err := f.Write(append(faultfs.AppendHeader(nil, journalMagic, journalVersion), frame...)); err != nil {
		return fail(fmt.Errorf("%w: write create record: %w", ErrJournal, err))
	}
	if err := f.Sync(); err != nil {
		return fail(fmt.Errorf("%w: sync create record: %w", ErrJournal, err))
	}
	// The file's own directory entry must survive a crash too, or recovery
	// will never see the journal.
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
		return fail(fmt.Errorf("%w: sync journal directory: %w", ErrJournal, err))
	}
	return &Journal{f: f, syncEvery: syncEvery}, nil
}

// openAppend reopens an existing journal for further appends, after
// readJournal has validated it and truncated any torn tail. It does not
// re-read the file.
func openAppend(fsys faultfs.FS, path string, syncEvery int) (*Journal, error) {
	// The reopened handle writes nothing here; each later AppendDelta syncs
	// on the group-commit cadence, and Sync/Close flush the window.
	//sectorlint:ignore fsyncorder append handle reopened after recovery; group commit fsyncs in AppendDelta/Sync
	f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: reopen %s: %w", path, err)
	}
	return &Journal{f: f, syncEvery: syncEvery}, nil
}

// AppendDelta journals one delta that advanced the instance. The caller
// must append every such delta — including deltas whose re-solve failed
// (the new instance is installed before solving) — or replay will diverge
// from the live session; Session.Deliver does exactly that. A write or
// sync failure poisons the journal: every later call returns the same
// error, and the owner must stop acknowledging deltas for this session.
func (j *Journal) AppendDelta(d model.Delta, idemKey string) error {
	if j == nil {
		return nil
	}
	if j.broken != nil {
		return j.broken
	}
	frame, err := encodeFrame(journalRecord{Kind: "delta", Delta: &d, IdemKey: idemKey})
	if err != nil {
		return err
	}
	if _, err := j.f.Write(frame); err != nil {
		j.broken = fmt.Errorf("%w: append delta: %w", ErrJournal, err)
		return j.broken
	}
	j.pending++
	if j.pending >= j.syncEvery {
		return j.sync()
	}
	return nil
}

// sync flushes any appends the group-commit window is still holding.
func (j *Journal) sync() error {
	if j == nil {
		return nil
	}
	if j.broken != nil {
		return j.broken
	}
	if j.pending == 0 {
		return nil
	}
	if err := j.f.Sync(); err != nil {
		j.broken = fmt.Errorf("%w: sync: %w", ErrJournal, err)
		return j.broken
	}
	j.pending = 0
	return nil
}

// Close flushes pending appends and closes the file. The journal stays on
// disk.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	serr := j.sync()
	cerr := j.f.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// recovered is a journal read back from disk: everything needed to rebuild
// the session by replay, plus what recovery had to discard.
type recovered struct {
	Solver   string
	Core     core.Options
	Instance *model.Instance
	Deltas   []journalRecord // kind "delta", Delta set
	// TruncatedBytes is how many bytes of torn tail readJournal cut off
	// (zero for a cleanly closed journal).
	TruncatedBytes int64
}

// readJournal reads a session journal, truncating any torn tail in place
// (which is why it opens read-write). The header and create record must be
// intact — without them there is no session to rebuild and the error is
// fatal for this journal. Past that, the first bad frame ends the log:
// everything before it is returned, everything from it on is cut off and
// counted in TruncatedBytes.
func readJournal(fsys faultfs.FS, path string) (*recovered, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	raw, err := io.ReadAll(f)
	if err != nil {
		return nil, fmt.Errorf("journal: read %s: %w", path, err)
	}
	br := bytes.NewReader(raw)
	h, err := faultfs.ReadHeader(br, journalMagic, 1)
	if err != nil {
		return nil, fmt.Errorf("journal: %s: %w", path, err)
	}
	if h[0] != journalVersion {
		return nil, fmt.Errorf("journal: %s: version %d (want %d)", path, h[0], journalVersion)
	}

	rec := &recovered{}
	good := len(raw) - br.Len() // end of the last fully valid frame
	first := true
	for {
		payload, intact, err := faultfs.ReadFrame(br)
		if err != nil || !intact {
			break
		}
		var jr journalRecord
		if err := json.Unmarshal(payload, &jr); err != nil {
			break
		}
		if first {
			if jr.Kind != "create" || jr.Instance == nil || jr.Core == nil {
				return nil, fmt.Errorf("journal: %s: first record is not a valid create record", path)
			}
			rec.Solver, rec.Core, rec.Instance = jr.Solver, *jr.Core, jr.Instance
			first = false
		} else {
			if jr.Kind != "delta" || jr.Delta == nil {
				break
			}
			rec.Deltas = append(rec.Deltas, jr)
		}
		good = len(raw) - br.Len()
	}
	if first {
		// The create record itself was torn; there is nothing to recover.
		return nil, fmt.Errorf("journal: %s: create record torn or missing", path)
	}
	if good < len(raw) {
		rec.TruncatedBytes = int64(len(raw) - good)
		if err := f.Truncate(int64(good)); err != nil {
			return nil, fmt.Errorf("journal: truncate torn tail of %s: %w", path, err)
		}
		if err := f.Sync(); err != nil {
			return nil, fmt.Errorf("journal: sync truncated %s: %w", path, err)
		}
	}
	return rec, nil
}

// replay rebuilds the session the journal describes: New on the base
// instance, then for each journaled delta the advance and commit Deliver
// ran. A re-solve that fails leaves the session uncommitted, as the same
// failure left the live one (solvers are deterministic); only a failed
// create, a delta the instance rejects, or a cancelled ctx aborts — a
// session that cannot be rebuilt exactly must not serve.
func (r *recovered) replay(ctx context.Context) (*Session, error) {
	s, err := New(ctx, r.Instance, Options{Solver: r.Solver, Core: r.Core})
	if err != nil {
		return nil, fmt.Errorf("journal replay: create: %w", err)
	}
	for k, dr := range r.Deltas {
		ru, err := s.advance(*dr.Delta)
		if err == nil && s.commit(ctx, ru) != nil {
			err = ctx.Err()
		}
		if err != nil {
			return nil, fmt.Errorf("journal replay: delta %d/%d: %w", k+1, len(r.Deltas), err)
		}
		s.lastKey = dr.IdemKey
	}
	return s, nil
}
