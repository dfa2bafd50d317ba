// Command sectorlint runs the repository's solver-invariant analyzers over
// the module. The intra-procedural wave — ctxloop, anglenorm, floateq — is
// joined by the interprocedural wave built on cross-package facts and the
// module call graph: lockdiscipline (fields annotated `// guarded by mu`
// are only touched holding the guard) and fsyncorder (durable write paths
// reach fsync and make no raw os writes; Journal/File/FS errors are never
// statement-discarded).
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
// doc-comment annotation the call-graph pass verifies at every call site:
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
