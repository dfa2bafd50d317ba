package lockdiscipline

import "lockstate"

// count locks the guard itself.
func (s *store) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// totalLocked declares its contract; callers are checked instead.
//
//sectorlint:locked store.mu
func (s *store) totalLocked() int { return s.retired }

// drain holds the lock across the helper call.
func (s *store) drain() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.totalLocked()
}

// helperAllCallersLock relies on its callers holding the lock, so it says
// so; drainAll, its one caller, is then checked for the lock instead.
//
//sectorlint:locked store.mu
func (s *store) helperAllCallersLock() int {
	return s.retired
}

func (s *store) drainAll() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.helperAllCallersLock()
}

// newStore touches guarded fields of a value it just built: unpublished,
// so no lock is needed.
func newStore() *store {
	s := &store{entries: map[string]int{}}
	s.entries["seed"] = 1
	s.retired = 0
	return s
}

// lockedClosure: the literal itself does not lock, but it is checked
// inside the function around it, which does.
func (s *store) lockedClosure() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	get := func() int { return s.retired }
	return get()
}

// closureLocks: the literal around the access locks, so the enclosing
// function need not.
func (s *store) closureLocks() func() int {
	return func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.retired
	}
}

// crossUnchecked touches another package's guarded field. Guards are
// package-local, so this package reports nothing here, whether or not
// lockstate is analyzed in the same run; lockstate itself is reported for
// exporting the field.
func crossUnchecked(e *lockstate.Entry) string {
	return e.Name
}
