// Package lockdiscipline checks that mutex-guarded struct fields are only
// touched with their guard held.
//
// Invariant: a struct field annotated
//
//	mu   sync.Mutex
//	sess *session.Session // guarded by mu
//
// may only be read or written by a function that (a) locks <owner>.mu
// itself, (b) is annotated `//sectorlint:locked <Owner>.mu` — a declared
// contract that every caller already holds the lock — or (c) is reached
// only from functions that hold the lock, verified over the module call
// graph. Rule (c) is what makes helpers honest: annotating a helper
// `locked` shifts the proof obligation to its callers, and the analyzer
// walks the call graph to collect it.
//
// The motivating bug is the PR-7/8 daemon class: sessionStore kept
// per-entry state (the live *session.Session, its journal, the
// idempotency memo) behind sessionEntry.mu, but stats-folding helpers
// read entry.sess without the lock, racing an in-flight delta apply.
// The same shape existed transiently in the proxy's per-backend health
// state before it moved to atomics. Annotations make the discipline
// checkable: the guard relation lives next to the fields, exported as
// facts, so an access in ANY package importing the struct is checked.
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

	"sectorpack/internal/analysis/astx"
	"sectorpack/internal/analysis/framework"
)

// GuardedBy is the field fact: the named sibling field is the mutex
// protecting this one.
type GuardedBy struct {
	Mutex string
}

// AFact marks GuardedBy as a fact.
func (*GuardedBy) AFact() {}

// RequiresLock is the object fact exported for functions annotated
// //sectorlint:locked <Owner>.<mutex>: callers must hold the lock.
type RequiresLock struct {
	// Owner is "<pkgpath>.<TypeName>" of the struct owning the mutex.
	Owner string
	// Mutex is the guard field's name.
	Mutex string
}

// AFact marks RequiresLock as a fact.
func (*RequiresLock) AFact() {}

// lockedPrefix introduces the helper annotation.
const lockedPrefix = "//sectorlint:locked"

// Analyzer is the lockdiscipline checker.
var Analyzer = &framework.Analyzer{
	Name: "lockdiscipline",
	Doc: "fields annotated `// guarded by mu` may only be accessed holding the guard: " +
		"the accessor locks <owner>.mu itself, is annotated //sectorlint:locked Owner.mu, " +
		"or is provably reached only from lock-holding callers (module call graph); " +
		"encodes the daemon sessionStore stats-fold race class",
	Run:            run,
	FactTypes:      []framework.Fact{(*GuardedBy)(nil), (*RequiresLock)(nil)},
	NeedsCallGraph: true,
}

func run(pass *framework.Pass) error {
	exportGuards(pass)
	exportLockedAnnotations(pass)

	checker := &checker{pass: pass, holds: map[holdQuery]bool{}}
	for _, node := range pass.Graph.NodesOf(pass.Pkg.Path()) {
		checker.checkNode(node)
	}
	return nil
}

// exportGuards publishes a GuardedBy fact for every `// guarded by <mu>`
// field comment on a named struct type, validating that the guard names a
// sibling field.
func exportGuards(pass *framework.Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Defs[ts.Name]
			if obj == nil {
				return true
			}
			named, _ := obj.Type().(*types.Named)
			if named == nil {
				return true
			}
			fieldNames := map[string]bool{}
			for _, f := range st.Fields.List {
				for _, name := range f.Names {
					fieldNames[name.Name] = true
				}
			}
			for _, f := range st.Fields.List {
				mu, ok := guardComment(f)
				if !ok {
					continue
				}
				if !fieldNames[mu] {
					pass.Reportf(f.Pos(),
						"guard comment names %q, which is not a field of %s; the guard must be a sibling field",
						mu, ts.Name.Name)
					continue
				}
				for _, name := range f.Names {
					if name.Name == mu {
						continue // a mutex cannot guard itself
					}
					pass.ExportFieldFact(named, name.Name, &GuardedBy{Mutex: mu})
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

// exportLockedAnnotations publishes RequiresLock facts for functions
// annotated //sectorlint:locked <Owner>.<mu>.
func exportLockedAnnotations(pass *framework.Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				text := strings.TrimSpace(c.Text)
				rest, ok := strings.CutPrefix(text, lockedPrefix)
				if !ok {
					continue
				}
				spec := strings.TrimSpace(rest)
				owner, mu, ok := strings.Cut(spec, ".")
				if !ok || owner == "" || mu == "" {
					pass.Reportf(c.Pos(), "malformed annotation: %s <Owner>.<mutex>", lockedPrefix)
					continue
				}
				pass.ExportObjectFact(obj, &RequiresLock{
					Owner: pass.Pkg.Path() + "." + owner,
					Mutex: mu,
				})
			}
		}
	}
}

// guardKey identifies one (owner type, mutex field) pair module-wide.
type guardKey struct {
	owner string // "<pkgpath>.<TypeName>"
	mutex string
}

type holdQuery struct {
	node  string
	guard guardKey
}

type checker struct {
	pass  *framework.Pass
	holds map[holdQuery]bool
}

// checkNode verifies every guarded-field access in one call-graph node.
// Nested function literals are skipped — they are their own nodes.
func (c *checker) checkNode(node *framework.CallNode) {
	fresh := constructorLocals(c.pass.TypesInfo, node.Body)
	ast.Inspect(node.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit.Body != node.Body {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			c.checkLockedCall(node, call)
			return true
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selection, ok := c.pass.TypesInfo.Selections[sel]
		if !ok || selection.Kind() != types.FieldVal {
			return true
		}
		owner := astx.NamedType(selection.Recv())
		if owner == nil || owner.Obj().Pkg() == nil {
			return true
		}
		var gb GuardedBy
		if !c.pass.ImportFieldFact(selection.Recv(), sel.Sel.Name, &gb) {
			return true
		}
		if base, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
			if obj := c.pass.TypesInfo.Uses[base]; obj != nil && fresh[obj] {
				return true // unpublished constructor local
			}
		}
		guard := guardKey{
			owner: owner.Obj().Pkg().Path() + "." + owner.Obj().Name(),
			mutex: gb.Mutex,
		}
		if !c.nodeHolds(node.Key, guard) {
			ownerName := owner.Obj().Name()
			c.pass.Reportf(sel.Sel.Pos(),
				"%s.%s is guarded by %q but %s does not hold it: lock %s.%s, or annotate the helper "+
					"//sectorlint:locked %s.%s and lock in every caller",
				ownerName, sel.Sel.Name, gb.Mutex, displayName(node),
				strings.ToLower(ownerName[:1]), gb.Mutex, ownerName, gb.Mutex)
		}
		return true
	})
}

// checkLockedCall enforces the other half of the //sectorlint:locked
// contract: the annotation promises every caller holds the lock, so a call
// to an annotated helper from a function that does not is a finding.
func (c *checker) checkLockedCall(node *framework.CallNode, call *ast.CallExpr) {
	fn := calleeFunc(c.pass.TypesInfo, call)
	if fn == nil {
		return
	}
	var rl RequiresLock
	if !c.pass.ImportObjectFact(fn, &rl) {
		return
	}
	guard := guardKey{owner: rl.Owner, mutex: rl.Mutex}
	if !c.nodeHolds(node.Key, guard) {
		ownerName := rl.Owner
		if i := strings.LastIndex(rl.Owner, "."); i >= 0 {
			ownerName = rl.Owner[i+1:]
		}
		c.pass.Reportf(call.Pos(),
			"%s is annotated //sectorlint:locked %s.%s but %s calls it without holding %s.%s",
			fn.Name(), ownerName, rl.Mutex, displayName(node), ownerName, rl.Mutex)
	}
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

// nodeHolds reports whether the function at key holds guard at every
// guarded access: it locks the mutex itself, declares the contract via
// //sectorlint:locked, or (recursively) is called only by holders. Cycles
// resolve optimistically — a mutually recursive pair whose every external
// entry point holds the lock passes.
func (c *checker) nodeHolds(key string, guard guardKey) bool {
	q := holdQuery{node: key, guard: guard}
	if v, ok := c.holds[q]; ok {
		return v
	}
	c.holds[q] = true // optimistic: cycles don't refute holding
	node := c.pass.Graph.Node(key)
	v := c.computeHolds(node, guard)
	c.holds[q] = v
	return v
}

func (c *checker) computeHolds(node *framework.CallNode, guard guardKey) bool {
	if node == nil {
		return false
	}
	if node.Body != nil && node.Pkg != nil && selfLocks(node.Pkg.TypesInfo, node.Body, guard) {
		return true
	}
	if node.Fn != nil {
		var rl RequiresLock
		if c.pass.ImportObjectFact(node.Fn, &rl) && rl.Owner == guard.owner && rl.Mutex == guard.mutex {
			return true
		}
	}
	callers := c.pass.Graph.Callers(node.Key)
	if len(callers) == 0 {
		return false
	}
	for _, caller := range callers {
		if !c.nodeHolds(caller.Key, guard) {
			return false
		}
	}
	return true
}

// selfLocks reports whether body contains a call of the shape
// <expr-of-owner-type>.<mutex>.Lock/RLock/TryLock/TryRLock(), outside
// nested function literals. Flow-insensitive by design: the repository
// style locks at function entry.
func selfLocks(info *types.Info, body *ast.BlockStmt, guard guardKey) bool {
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
		if !ok || muSel.Sel.Name != guard.mutex {
			return true
		}
		recv, ok := info.Types[muSel.X]
		if !ok {
			return true
		}
		owner := astx.NamedType(recv.Type)
		if owner == nil || owner.Obj().Pkg() == nil {
			return true
		}
		if owner.Obj().Pkg().Path()+"."+owner.Obj().Name() == guard.owner {
			found = true
			return false
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

func displayName(node *framework.CallNode) string {
	if node.Fn != nil {
		return node.Fn.Name()
	}
	return "a function literal"
}
