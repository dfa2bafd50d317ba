// The session package owns journals — append-only durable state — so raw
// os mutations are findings just as in the cache package.
package session

import "os"

func appendJournal(path string, frame []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644) // want `raw os\.OpenFile in durable-state package session`
	if err != nil {
		return err
	}
	if _, err := f.Write(frame); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeJournal(path string, frames []byte) error {
	return os.WriteFile(path, frames, 0o644) // want `raw os\.WriteFile in durable-state package session`
}

func dropJournal(path string) error {
	return os.Remove(path) // want `raw os\.Remove in durable-state package session`
}

func journalDir(dir string) error {
	return os.MkdirAll(dir, 0o755) // want `raw os\.MkdirAll in durable-state package session`
}

// Reading a journal back is not a finding.
func readJournal(path string) ([]byte, error) {
	return os.ReadFile(path)
}
