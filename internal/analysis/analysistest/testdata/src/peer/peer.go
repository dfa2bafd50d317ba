// Package peer is a second harness fixture with nothing to flag, so a run
// can analyze demo alongside another package.
package peer

func other() int { return 3 }
