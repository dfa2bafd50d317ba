// Command sectorlint runs the repository's solver-invariant analyzers over
// the module, one package at a time: ctxloop (solvers honour
// cancellation), anglenorm (2π-seam arithmetic lives in geom), floateq
// (float equality), lockdiscipline (fields annotated `// guarded by mu`
// are only touched holding the guard) and fsyncorder (a writable faultfs
// open is synced in the same function, durable packages make no raw os
// writes, and Journal/File/FS errors are never statement-discarded).
//
// Usage:
//
//	go run ./cmd/sectorlint ./...
//	go run ./cmd/sectorlint -list
//	go run ./cmd/sectorlint -only lockdiscipline,fsyncorder ./internal/daemon/...
//	go run ./cmd/sectorlint -include-tests -only ctxloop,floateq ./...
//
// Findings are suppressed per line with a mandatory reason:
//
//	x := seam() //sectorlint:ignore anglenorm canonical-order sort needs the raw value
//
// -stale-ignores additionally reports suppression comments that no longer
// suppress anything or that name an analyzer outside the suite (CI runs
// with it on, so the ignore inventory cannot rot). Findings print one per
// line as file:line:col: message (analyzer).
//
// Helpers whose contract is "caller must hold the lock" declare it with a
// doc-comment annotation, and every call site in the package is checked
// for the lock instead:
//
//	//sectorlint:locked Cache.mu
//	func (c *Cache) putLocked(...) { ... }
//
// Exit status: 0 clean, 1 findings, 2 load/usage errors.
package main

import (
	"os"

	"sectorpack/internal/analysis/sectorlint"
)

func main() {
	os.Exit(sectorlint.Main(os.Stdout, os.Stderr, os.Args[1:]))
}
