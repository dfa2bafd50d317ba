// Package lockdiscipline checks that mutex-guarded struct fields are only
// touched with their guard held.
//
// Invariant: a struct field annotated
//
//	mu   sync.Mutex
//	sess *session.Session // guarded by mu
//
// may only be read or written by a function that (a) locks <owner>.mu
// itself — the declaration, or a function literal around the access — or
// (b) is annotated `//sectorlint:locked <Owner>.mu`, a declared contract
// that every caller already holds the lock. A call to an annotated helper
// is held to the same two rules, so the annotation moves the proof to the
// call sites instead of dropping it.
//
// The motivating bug is the PR-7/8 daemon class: sessionStore kept
// per-entry state (the live *session.Session, its journal, the
// idempotency memo) behind sessionEntry.mu, but stats-folding helpers
// read entry.sess without the lock, racing an in-flight delta apply.
// The same shape existed transiently in the proxy's per-backend health
// state before it moved to atomics.
//
// The check sees one package at a time, which is complete because a
// guarded field, its mutex, and a //sectorlint:locked helper must all be
// unexported: an exported one is reported, so every access the rules
// govern lies in the owner's package.
//
// Exemptions, each encoding a real pattern in this repository:
//
//   - Constructor locals: a value the function itself built from a
//     composite literal (e := &sessionEntry{...}) is unpublished, so
//     pre-publication field access needs no lock.
//   - The guard field itself: e.mu.Lock() is obviously not a guarded
//     access.
package lockdiscipline

import (
	"go/ast"
	"go/types"
	"strings"

	"sectorpack/internal/analysis/framework"
)

// lockedPrefix introduces the helper annotation.
const lockedPrefix = "//sectorlint:locked"

// Analyzer is the lockdiscipline checker.
var Analyzer = &framework.Analyzer{
	Name: "lockdiscipline",
	Doc: "fields annotated `// guarded by mu` may only be accessed holding the guard: " +
		"the accessor (or a function literal around the access) locks <owner>.mu itself, " +
		"or is annotated //sectorlint:locked Owner.mu and every call site is checked instead; " +
		"guarded fields, their mutexes and locked helpers must be unexported; " +
		"encodes the daemon sessionStore stats-fold race class",
	Run: run,
}

// guard is one (owner type, mutex field) pair.
type guard struct {
	owner string     // the owning struct type's name, for messages
	mu    *types.Var // the mutex field; guards compare by it alone
}

type checker struct {
	pass *framework.Pass
	// fields maps each guarded field to its guard.
	fields map[*types.Var]guard
	// locked maps each //sectorlint:locked function to the guard its
	// callers must hold.
	locked map[*types.Func]guard
}

func run(pass *framework.Pass) error {
	c := &checker{pass: pass, fields: map[*types.Var]guard{}, locked: map[*types.Func]guard{}}
	c.collectGuards()
	c.collectLocked()
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				if fd.Body != nil {
					c.checkBody(fd, fd.Body, []*ast.BlockStmt{fd.Body})
				}
				continue
			}
			// Function literals in package-level initializers have no
			// declaration to lock or carry an annotation.
			ast.Inspect(decl, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					c.checkBody(nil, lit.Body, []*ast.BlockStmt{lit.Body})
					return false
				}
				return true
			})
		}
	}
	return nil
}

// collectGuards records every `// guarded by <mu>` field comment on a
// struct type, validating that the guard names a sibling field and that
// neither the field nor its guard is exported.
func (c *checker) collectGuards() {
	for _, file := range c.pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			siblings := map[string]*ast.Ident{}
			for _, f := range st.Fields.List {
				for _, name := range f.Names {
					siblings[name.Name] = name
				}
			}
			reportedMu := map[string]bool{}
			for _, f := range st.Fields.List {
				mu, ok := guardComment(f)
				if !ok {
					continue
				}
				muIdent := siblings[mu]
				if muIdent == nil {
					c.pass.Reportf(f.Pos(),
						"guard comment names %q, which is not a field of %s; the guard must be a sibling field",
						mu, ts.Name.Name)
					continue
				}
				muVar, _ := c.pass.TypesInfo.Defs[muIdent].(*types.Var)
				if muVar == nil {
					continue
				}
				if muVar.Exported() && !reportedMu[mu] {
					reportedMu[mu] = true
					c.pass.Reportf(muIdent.Pos(),
						"%s.%s guards other fields but is exported; unexport it so every lock and "+
							"access lies in package %s, where lockdiscipline checks them",
						ts.Name.Name, mu, c.pass.Pkg.Name())
				}
				for _, name := range f.Names {
					if name.Name == mu {
						continue // a mutex cannot guard itself
					}
					if name.IsExported() {
						c.pass.Reportf(name.Pos(),
							"%s.%s is guarded by %q but exported; unexport it so every access lies "+
								"in package %s, where lockdiscipline checks them",
							ts.Name.Name, name.Name, mu, c.pass.Pkg.Name())
					}
					if v, ok := c.pass.TypesInfo.Defs[name].(*types.Var); ok {
						c.fields[v] = guard{owner: ts.Name.Name, mu: muVar}
					}
				}
			}
			return true
		})
	}
}

// guardComment extracts the mutex name from a field's `// guarded by <mu>`
// comment (trailing or doc).
func guardComment(f *ast.Field) (string, bool) {
	for _, cg := range []*ast.CommentGroup{f.Comment, f.Doc} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(c.Text), "//"))
			rest, ok := strings.CutPrefix(text, "guarded by ")
			if !ok {
				continue
			}
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				return fields[0], true
			}
		}
	}
	return "", false
}

// collectLocked records the functions annotated
// //sectorlint:locked <Owner>.<mu>, resolving Owner among this package's
// struct types and reporting an annotation that does not resolve.
func (c *checker) collectLocked() {
	for _, file := range c.pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			fn, _ := c.pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			for _, cm := range fd.Doc.List {
				rest, ok := strings.CutPrefix(strings.TrimSpace(cm.Text), lockedPrefix)
				if !ok {
					continue
				}
				spec, _, _ := strings.Cut(strings.TrimSpace(rest), " ")
				owner, mu, _ := strings.Cut(spec, ".")
				muVar := c.structField(owner, mu)
				if muVar == nil {
					c.pass.Reportf(cm.Pos(), "malformed annotation: %s <Owner>.<mutex>, naming a struct type "+
						"of this package and its mutex field", lockedPrefix)
					continue
				}
				if fn.Exported() {
					c.pass.Reportf(fd.Name.Pos(),
						"%s is annotated %s %s.%s but exported; unexport it so every call site lies "+
							"in package %s, where lockdiscipline checks them",
						fn.Name(), lockedPrefix, owner, mu, c.pass.Pkg.Name())
				}
				c.locked[fn] = guard{owner: owner, mu: muVar}
			}
		}
	}
}

// structField returns the field named field of this package's struct
// type named owner, or nil.
func (c *checker) structField(owner, field string) *types.Var {
	tn, ok := c.pass.Pkg.Scope().Lookup(owner).(*types.TypeName)
	if !ok {
		return nil
	}
	st, ok := tn.Type().Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == field {
			return st.Field(i)
		}
	}
	return nil
}

// checkBody verifies every guarded-field access and every call to a
// locked helper in body. decl is the enclosing declaration (nil at package
// level) and bodies the enclosing function bodies, outermost first, ending
// with body; nested function literals recurse with their own body pushed.
func (c *checker) checkBody(decl *ast.FuncDecl, body *ast.BlockStmt, bodies []*ast.BlockStmt) {
	info := c.pass.TypesInfo
	fresh := constructorLocals(info, body)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			c.checkBody(decl, n.Body, append(bodies[:len(bodies):len(bodies)], n.Body))
			return false
		case *ast.CallExpr:
			fn := calleeFunc(info, n)
			if fn == nil {
				return true
			}
			if g, ok := c.locked[fn.Origin()]; ok && !c.holds(decl, bodies, g) {
				c.pass.Reportf(n.Pos(),
					"%s is annotated //sectorlint:locked %s.%s but %s calls it without holding %s.%s",
					fn.Name(), g.owner, g.mu.Name(), displayName(decl, bodies), g.owner, g.mu.Name())
			}
		case *ast.SelectorExpr:
			selection, ok := info.Selections[n]
			if !ok || selection.Kind() != types.FieldVal {
				return true
			}
			field, _ := selection.Obj().(*types.Var)
			if field == nil {
				return true
			}
			g, ok := c.fields[field.Origin()]
			if !ok {
				return true
			}
			if base, ok := ast.Unparen(n.X).(*ast.Ident); ok {
				if obj := info.Uses[base]; obj != nil && fresh[obj] {
					return true // unpublished constructor local
				}
			}
			if !c.holds(decl, bodies, g) {
				mu := g.mu.Name()
				c.pass.Reportf(n.Sel.Pos(),
					"%s.%s is guarded by %q but %s does not hold it: lock %s.%s, or annotate the helper "+
						"//sectorlint:locked %s.%s and lock in every caller",
					g.owner, n.Sel.Name, mu, displayName(decl, bodies),
					types.ExprString(n.X), mu, g.owner, mu)
			}
		}
		return true
	})
}

// holds reports whether g is held inside the innermost of bodies: the
// declaration is annotated with g, or one of the enclosing bodies locks it.
func (c *checker) holds(decl *ast.FuncDecl, bodies []*ast.BlockStmt, g guard) bool {
	if decl != nil {
		if fn, ok := c.pass.TypesInfo.Defs[decl.Name].(*types.Func); ok {
			if lg, ok := c.locked[fn]; ok && lg.mu == g.mu {
				return true
			}
		}
	}
	for _, b := range bodies {
		if selfLocks(c.pass.TypesInfo, b, g.mu) {
			return true
		}
	}
	return false
}

// calleeFunc resolves the *types.Func a call invokes, or nil for builtins,
// conversions, and dynamic calls through function values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// selfLocks reports whether body contains a call of the shape
// <expr>.<mu>.Lock/RLock/TryLock/TryRLock() on the mutex field mu, outside
// nested function literals. Flow-insensitive by design: the repository
// style locks at function entry.
func selfLocks(info *types.Info, body *ast.BlockStmt, mu *types.Var) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if lit, ok := n.(*ast.FuncLit); ok && lit.Body != body {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		lockSel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch lockSel.Sel.Name {
		case "Lock", "RLock", "TryLock", "TryRLock":
		default:
			return true
		}
		muSel, ok := ast.Unparen(lockSel.X).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if sel, ok := info.Selections[muSel]; ok {
			if v, ok := sel.Obj().(*types.Var); ok && v.Origin() == mu {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// constructorLocals collects the objects this body initializes from a
// composite literal (e := &T{...} / var e = T{...}): values the function
// built itself and has not yet published.
func constructorLocals(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	fresh := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) != len(st.Rhs) {
				return true
			}
			for i, rhs := range st.Rhs {
				if !isCompositeLit(rhs) {
					continue
				}
				if id, ok := st.Lhs[i].(*ast.Ident); ok {
					if obj := info.Defs[id]; obj != nil {
						fresh[obj] = true
					} else if obj := info.Uses[id]; obj != nil && isLocalVar(obj) {
						fresh[obj] = true
					}
				}
			}
		case *ast.ValueSpec:
			for i, name := range st.Names {
				if i < len(st.Values) && isCompositeLit(st.Values[i]) {
					if obj := info.Defs[name]; obj != nil {
						fresh[obj] = true
					}
				}
			}
		}
		return true
	})
	return fresh
}

func isCompositeLit(e ast.Expr) bool {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok {
		e = ast.Unparen(u.X)
	}
	_, ok := e.(*ast.CompositeLit)
	return ok
}

// isLocalVar reports whether obj is a function-scoped variable (not a
// package var, parameter of another function, or field).
func isLocalVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return false
	}
	return v.Parent() == nil || (v.Pkg() != nil && v.Parent() != v.Pkg().Scope())
}

// displayName names the function an access happens in.
func displayName(decl *ast.FuncDecl, bodies []*ast.BlockStmt) string {
	if decl != nil && len(bodies) == 1 {
		return decl.Name.Name
	}
	return "a function literal"
}
