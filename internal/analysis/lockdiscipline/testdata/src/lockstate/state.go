// Package lockstate holds the exported-guard fixtures. lockdiscipline
// checks one package at a time, which covers every access only while
// guarded fields, their mutexes and //sectorlint:locked helpers stay
// unexported; each exported one here is a finding.
package lockstate

import "sync"

// Entry mirrors the daemon's sessionEntry shape, with everything exported.
type Entry struct {
	Mu   sync.Mutex // want `Entry\.Mu guards other fields but is exported`
	Name string     // guarded by Mu // want `Entry\.Name is guarded by "Mu" but exported`
	Hits int        // guarded by Mu // want `Entry\.Hits is guarded by "Mu" but exported`
}

// Touch is a correctly locking accessor.
func (e *Entry) Touch() {
	e.Mu.Lock()
	defer e.Mu.Unlock()
	e.Hits++
}

//sectorlint:locked Entry.Mu
func (e *Entry) NameLocked() string { return e.Name } // want `NameLocked is annotated //sectorlint:locked Entry\.Mu but exported`

// counter keeps its guard and guarded field unexported: no finding.
type counter struct {
	mu sync.Mutex
	n  int // guarded by mu
}

func (c *counter) inc() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
}
