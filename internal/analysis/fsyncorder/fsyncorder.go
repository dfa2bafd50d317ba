// Package fsyncorder checks the durability discipline around faultfs: a
// function that opens a writable file syncs it itself, errors from
// journal/file mutations are never discarded, and durable packages never
// write through raw os calls.
//
// Invariant (DESIGN.md, "Durable sectord"): crash safety rests on exactly
// two mechanics — atomic replace (write temp, fsync file, rename, fsync
// dir: faultfs.WriteFileAtomic) and group-committed journal appends whose
// errors poison the session. PR 8's fault-injection harness exists
// because both were once violated: a snapshot written without the
// file-level fsync survived the process but not the power cut (torn
// write), and a journal append error that was dropped left the in-memory
// session ahead of its durable log, so recovery silently lost deltas.
//
// Three rules, each looking at one function of one package:
//
//   - Reach-sync (durable packages: cache, session, model): a function
//     that opens a writable faultfs file (Create / CreateTemp / OpenFile)
//     calls .Sync() in its own body. Writes that need no handle of their
//     own go through faultfs.WriteFileAtomic, which opens nothing in the
//     caller; a handle deliberately synced elsewhere carries a reasoned
//     //sectorlint:ignore.
//   - No discarded errors (every package except faultfs itself): a
//     statement-position call to an error-returning method of
//     session.Journal or of the faultfs File/FS seams throws the error
//     away. Journal errors must poison; file errors must propagate.
//     `defer f.Close()` on read paths is idiomatic and exempt — the rule
//     binds plain statements only.
//   - No raw os writes (durable packages): os.Create, os.OpenFile,
//     os.WriteFile, os.Rename, os.Remove, os.MkdirAll and the other
//     filesystem-mutating os calls bypass faultfs, so the crash-consistency
//     suite can neither observe nor fail them and the atomic-replace
//     discipline is silently skipped. Read-only calls (os.Open,
//     os.ReadFile, os.Stat) are allowed: they can miss durable state, not
//     corrupt it.
package fsyncorder

import (
	"go/ast"
	"go/token"
	"go/types"

	"sectorpack/internal/analysis/astx"
	"sectorpack/internal/analysis/framework"
)

// durablePackages are the package names whose writes must be crash-safe.
var durablePackages = map[string]bool{"cache": true, "session": true, "model": true}

// writableOpens are the FS methods that hand back a writable File.
var writableOpens = map[string]bool{"Create": true, "CreateTemp": true, "OpenFile": true}

// rawOSWrites are the os package's filesystem-mutating entry points.
var rawOSWrites = map[string]bool{
	"Create": true, "CreateTemp": true, "OpenFile": true, "WriteFile": true,
	"Rename": true, "Remove": true, "RemoveAll": true, "Mkdir": true,
	"MkdirAll": true, "Truncate": true,
}

// Analyzer is the fsyncorder checker.
var Analyzer = &framework.Analyzer{
	Name: "fsyncorder",
	Doc: "durable write paths must fsync: a function in cache/session/model that opens a " +
		"writable faultfs file must call .Sync() itself (or write through faultfs.WriteFileAtomic); " +
		"error-returning Journal/File/FS mutations must not be statement-discarded " +
		"(the torn-write and lost-delta classes); and durable packages must not " +
		"write through raw os calls the crash suite cannot see",
	Run: run,
}

func run(pass *framework.Pass) error {
	if durablePackages[pass.Pkg.Name()] {
		checkReachSync(pass)
		checkRawOSWrites(pass)
	}
	if pass.Pkg.Name() != "faultfs" {
		checkDiscardedErrors(pass)
	}
	return nil
}

// checkReachSync flags writable faultfs opens in functions that never call
// Sync. Each declaration (or package-level function literal) is read
// whole, function literals inside it included.
func checkReachSync(pass *framework.Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body == nil {
				return false
			}
			if openPos := writableOpenPos(pass.TypesInfo, body); openPos != nil && !callsMethodNamed(body, "Sync") {
				pass.Reportf(*openPos,
					"writable faultfs open with no reachable Sync: route the write through "+
						"faultfs.WriteFileAtomic or fsync the handle before rename/close, "+
						"or a crash here tears the durable state")
			}
			return false
		})
	}
}

// checkRawOSWrites flags filesystem-mutating os calls, which bypass the
// faultfs seam.
func checkRawOSWrites(pass *framework.Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || !rawOSWrites[sel.Sel.Name] {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			if pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "os" {
				pass.Reportf(call.Pos(), "raw os.%s in durable-state package %s; persistence must go through faultfs so the crash-consistency suite can see every write", sel.Sel.Name, pass.Pkg.Name())
			}
			return true
		})
	}
}

// writableOpenPos returns the position of the first Create/CreateTemp/
// OpenFile call on a faultfs.FS value in body, or nil.
func writableOpenPos(info *types.Info, body *ast.BlockStmt) *token.Pos {
	var pos *token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		if pos != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !writableOpens[sel.Sel.Name] {
			return true
		}
		tv, ok := info.Types[sel.X]
		if !ok || !astx.IsNamed(tv.Type, "faultfs", "FS") {
			return true
		}
		p := call.Pos()
		pos = &p
		return false
	})
	return pos
}

// callsMethodNamed reports whether body contains a call x.<name>(...).
func callsMethodNamed(body *ast.BlockStmt, name string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == name {
			found = true
			return false
		}
		return true
	})
	return found
}

// checkDiscardedErrors flags statement-position calls that drop the error
// of a Journal or faultfs File/FS method.
func checkDiscardedErrors(pass *framework.Pass) {
	deferred := map[*ast.CallExpr]bool{}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if d, ok := n.(*ast.DeferStmt); ok {
				deferred[d.Call] = true
			}
			return true
		})
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := st.X.(*ast.CallExpr)
			if !ok || deferred[call] {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			selection, ok := pass.TypesInfo.Selections[sel]
			if !ok || selection.Kind() != types.MethodVal {
				return true
			}
			if !durableSeamType(selection.Recv()) {
				return true
			}
			sig, ok := selection.Obj().Type().(*types.Signature)
			if !ok || !lastResultIsError(sig) {
				return true
			}
			pass.Reportf(call.Pos(),
				"%s error discarded: journal and file mutations must poison or propagate "+
					"(a dropped append/remove error desyncs memory from the durable log)",
				sel.Sel.Name)
			return true
		})
	}
}

// durableSeamType reports whether t is session.Journal, faultfs.File, or
// faultfs.FS (possibly behind a pointer), matching by package name so the
// minimized fixtures exercise the same code path.
func durableSeamType(t types.Type) bool {
	return astx.IsNamed(t, "session", "Journal") ||
		astx.IsNamed(t, "faultfs", "File") ||
		astx.IsNamed(t, "faultfs", "FS")
}

func lastResultIsError(sig *types.Signature) bool {
	res := sig.Results()
	if res.Len() == 0 {
		return false
	}
	last := res.At(res.Len() - 1).Type()
	named, ok := last.(*types.Named)
	return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}
