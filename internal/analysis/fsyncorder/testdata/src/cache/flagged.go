// Package cache exercises both fsyncorder rules from a durable package.
package cache

import (
	"faultfs"
	"session"
)

// badSnapshot writes durable state with no fsync anywhere on the path.
func badSnapshot(fsys faultfs.FS, data []byte) error {
	f, err := fsys.Create("snapshot.bin") // want `no reachable Sync`
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// badTemp opens through a helper-free CreateTemp and renames without
// syncing: the classic torn write.
func badTemp(fsys faultfs.FS, data []byte) error {
	f, err := fsys.CreateTemp(".", "snap") // want `no reachable Sync`
	if err != nil {
		return err
	}
	f.Write(data) // want `Write error discarded`
	if err := f.Close(); err != nil {
		return err
	}
	return fsys.Rename(f.Name(), "snapshot.bin")
}

// badJournal drops append and remove errors on the floor.
func badJournal(j *session.Journal) {
	j.AppendDelta("d1") // want `AppendDelta error discarded`
	j.Remove()          // want `Remove error discarded`
}

// badViaHelper opens here and leaves the Sync to a callee. The rule reads
// one function at a time, so the open must sync where it happens (or be
// routed through faultfs.WriteFileAtomic).
func badViaHelper(fsys faultfs.FS, data []byte) error {
	f, err := fsys.Create("snapshot.bin") // want `no reachable Sync`
	if err != nil {
		return err
	}
	return finish(f, data)
}

func finish(f faultfs.File, data []byte) error {
	if _, err := f.Write(data); err != nil {
		_ = f.Close() // explicit discard is a decision, not an accident
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	return f.Close()
}
