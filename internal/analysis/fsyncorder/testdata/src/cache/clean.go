package cache

import (
	"io"

	"faultfs"
	"session"
)

// goodAtomic routes the write through the atomic-replace sink, which
// opens and syncs inside faultfs; this function opens nothing itself.
func goodAtomic(fsys faultfs.FS, data []byte) error {
	return faultfs.WriteFileAtomic(fsys, "snapshot.bin", func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// goodExplicit opens and syncs in the same body.
func goodExplicit(fsys faultfs.FS, data []byte) error {
	f, err := fsys.Create("snapshot.bin")
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := f.Write(data); err != nil {
		return err
	}
	return f.Sync()
}

// goodJournal propagates every journal error.
func goodJournal(j *session.Journal) error {
	if err := j.AppendDelta("d1"); err != nil {
		return err
	}
	_ = j.Path()
	return j.Sync()
}
