package lockdiscipline

import "sync"

type store struct {
	mu      sync.Mutex
	entries map[string]int // guarded by mu
	retired int            // guarded by mu
	bad     int            // guarded by gone // want `guard comment names "gone"`
}

// badCount reads a guarded field with no lock anywhere in sight.
func (s *store) badCount() int {
	return len(s.entries) // want `entries is guarded by "mu"`
}

// badHelper neither locks nor declares the contract. One of its callers
// holds the lock, but callers are not consulted: the helper must say
// //sectorlint:locked for that to count, and then forgetfulCaller is the
// finding.
func (s *store) badHelper() int {
	return s.retired // want `retired is guarded by "mu"`
}

func (s *store) lockingCaller() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.badHelper()
}

func (s *store) forgetfulCaller() int {
	return s.badHelper()
}

// forgetfulDrain calls a //sectorlint:locked helper without the lock.
func (s *store) forgetfulDrain() int {
	return s.totalLocked() // want `totalLocked is annotated //sectorlint:locked store.mu but forgetfulDrain calls it without holding store.mu`
}

// badClosure hands a literal that reads a guarded field to a goroutine;
// neither the literal nor the function around it locks.
func (s *store) badClosure(out chan<- int) {
	go func() {
		out <- s.retired // want `retired is guarded by "mu" but a function literal does not hold it`
	}()
}

// registry's methods use the receiver name st, not the type's initial, and
// the hint must name the lock as the code spells it.
type registry struct {
	mu    sync.Mutex
	names []string // guarded by mu
}

func (st *registry) badReceiverName() int {
	return len(st.names) // want `lock st\.mu, or annotate`
}

//sectorlint:locked store // want `malformed annotation`
func (s *store) malformedAnnotation() int { return 0 }

//sectorlint:locked ghost.mu // want `malformed annotation`
func (s *store) unknownOwner() int { return 0 }

// peek is a package-level literal: no declaration around it can lock.
var peek = func(s *store) int {
	return s.retired // want `retired is guarded by "mu" but a function literal does not hold it`
}
