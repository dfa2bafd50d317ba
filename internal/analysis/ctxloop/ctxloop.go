// Package ctxloop enforces the repository's cancellation contract on
// solver functions.
//
// Invariant (DESIGN.md, "Cancellable solving"): every core.Solver checks
// ctx at its iteration boundaries — greedy steps, local-search moves,
// orientation tuples — so a cancelled solve returns ctx.Err() promptly
// instead of running to completion. PR 2 fixed exactly this bug in
// exact.SolveParallel: the function accepted a context.Context and then
// looped over the orientation-tuple space without ever consulting it, so
// a daemon deadline could not interrupt the exponential enumeration.
//
// The analyzer flags every for/range loop that performs real per-iteration
// work inside a solver-shaped function without touching the function's
// context parameter. "Solver-shaped" means the first parameter is a
// context.Context and either the function's name starts with "Solve" or
// one of its results is a type named Solution — the shape shared by
// core.Solver implementations, the registry closures, and the package
// solver entry points (multistation, fair, cover, exact). "Real work"
// means the loop body calls a declared function or method, or contains a
// non-trivial nested loop; pure index/bookkeeping loops (initializing an
// ownership slice, appending pairs) are exempt because checking ctx there
// would be noise, not a guarantee. Touching ctx — calling ctx.Err(),
// selecting on ctx.Done(), or passing ctx into the work — satisfies the
// contract, because every callee that accepts the ctx is itself held to
// this invariant.
//
// A second rule extends the contract to parallel fan-outs (sweep.Each,
// the one worker pool, which the columnar engine's Prewarm and best-window
// evaluation, sweep.Run and SolveBatch share): inside
// ANY function whose first parameter is a context.Context — solver-shaped
// or not — a goroutine launched as `go func() { ... }()` must consult a
// context in every working loop, typically once per claimed work batch.
// A worker pool that drains its queue regardless of cancellation keeps a
// deadline-exceeded solve burning CPU for the full instance size. This
// rule matches by type, not by the parameter object: worker pools
// routinely re-derive the context (ctx, cancel := context.WithCancel(ctx)),
// and consulting the derived context is exactly right, since cancellation
// flows parent to child. Goroutine literals that take their own
// context.Context parameter are exempt here — they carry their own
// contract and are analyzed as functions in their own right.
package ctxloop

import (
	"go/ast"
	"go/types"

	"sectorpack/internal/analysis/astx"
	"sectorpack/internal/analysis/framework"
)

// Analyzer is the ctxloop checker.
var Analyzer = &framework.Analyzer{
	Name: "ctxloop",
	Doc: "solver loops must consult their context: every for loop doing real work " +
		"inside a Solve*/Solution-returning function that takes a context.Context " +
		"must check ctx.Err(), select on ctx.Done(), or pass ctx to its callees " +
		"(the exact.SolveParallel bug fixed in PR 2); worker goroutines launched " +
		"inside any context-taking function must likewise consult a context in " +
		"every working loop, once per claimed batch",
	Run: run,
}

func run(pass *framework.Pass) error {
	for _, fn := range astx.Funcs(pass.Files) {
		name := fn.Name
		if name == "" {
			name = "function literal"
		}
		if ctxObj, ok := solverShape(pass, fn); ok {
			checkLoops(pass, fn.Body, name, ctxObj, false)
		}
		if hasCtxFirstParam(pass, fn.Type) {
			checkWorkerGoroutines(pass, fn.Body, name)
		}
	}
	return nil
}

// checkWorkerGoroutines applies the worker-pool rule: every `go func() {...}()`
// launched (transitively) in the function's body must consult a context in
// each of its working loops. Nested function literals that accept their own
// context.Context are skipped — astx.Funcs enumerates them separately and
// they are held to their own contract.
func checkWorkerGoroutines(pass *framework.Pass, body *ast.BlockStmt, name string) {
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && litTakesCtx(pass, lit) {
			return false
		}
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		lit, ok := g.Call.Fun.(*ast.FuncLit)
		if !ok || litTakesCtx(pass, lit) {
			return true
		}
		checkWorkerLoops(pass, lit.Body, name, false)
		return true
	})
}

// checkWorkerLoops is checkLoops for a worker goroutine body: the
// exemption is consulting ANY context-typed value (see the package comment
// on why the match is by type), and the finding message names the pool.
func checkWorkerLoops(pass *framework.Pass, n ast.Node, name string, exempt bool) {
	ast.Inspect(n, func(c ast.Node) bool {
		switch c.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt, *ast.RangeStmt:
			if c == n {
				return true
			}
			body, _ := loopBody(c)
			childExempt := exempt || mentionsContextValue(pass.TypesInfo, body)
			if !childExempt && hasWork(pass.TypesInfo, body) {
				pass.Reportf(c.Pos(),
					"worker goroutine in %s loops over work without consulting a context; check ctx.Err() once per claimed batch so cancellation stops the pool", name)
				childExempt = true
			}
			checkWorkerLoops(pass, c, name, childExempt)
			return false
		}
		return true
	})
}

// hasCtxFirstParam reports whether the function's first parameter is a
// context.Context (named or not).
func hasCtxFirstParam(pass *framework.Pass, ftype *ast.FuncType) bool {
	params := ftype.Params
	if params == nil || len(params.List) == 0 {
		return false
	}
	tv, ok := pass.TypesInfo.Types[params.List[0].Type]
	return ok && astx.IsNamed(tv.Type, "context", "Context")
}

// litTakesCtx reports whether a function literal's first parameter is a
// context.Context.
func litTakesCtx(pass *framework.Pass, lit *ast.FuncLit) bool {
	return hasCtxFirstParam(pass, lit.Type)
}

// mentionsContextValue reports whether n uses any identifier whose type is
// context.Context — the function's own parameter, a derived child context,
// or one captured from an enclosing scope.
func mentionsContextValue(info *types.Info, n ast.Node) bool {
	if n == nil {
		return false
	}
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		if found {
			return false
		}
		if id, ok := c.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil && astx.IsNamed(obj.Type(), "context", "Context") {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// checkLoops walks stmts looking for offending loops. exempt is true when
// an enclosing loop already consults ctx on every one of its iterations —
// the granularity the solvers use (one check per greedy step, per
// orientation tuple, ...) — so nested loops under it are covered. A
// reported loop also exempts its children: the finding names the
// outermost boundary where the check belongs.
func checkLoops(pass *framework.Pass, n ast.Node, name string, ctxObj types.Object, exempt bool) {
	ast.Inspect(n, func(c ast.Node) bool {
		switch c.(type) {
		case *ast.FuncLit:
			// Nested literals carry their own ctx parameter (or lack
			// thereof) and are visited as their own astx.Func.
			return false
		case *ast.ForStmt, *ast.RangeStmt:
			if c == n {
				return true
			}
			body, _ := loopBody(c)
			childExempt := exempt || astx.MentionsObject(pass.TypesInfo, body, ctxObj)
			if !childExempt && hasWork(pass.TypesInfo, body) {
				pass.Reportf(c.Pos(),
					"loop in solver %s does per-iteration work without consulting its context; check ctx.Err() (or pass ctx to the work) so cancellation interrupts it", name)
				childExempt = true
			}
			checkLoops(pass, c, name, ctxObj, childExempt)
			return false
		}
		return true
	})
}

// solverShape reports whether fn is solver-shaped and returns the object
// of its context parameter. A context parameter that is unnamed (or
// blank) can never be consulted, so the nil object makes every working
// loop a finding — which is exactly right: such a function cannot honor
// cancellation at all.
func solverShape(pass *framework.Pass, fn astx.Func) (types.Object, bool) {
	params := fn.Type.Params
	if params == nil || len(params.List) == 0 {
		return nil, false
	}
	first := params.List[0]
	tv, ok := pass.TypesInfo.Types[first.Type]
	if !ok || !astx.IsNamed(tv.Type, "context", "Context") {
		return nil, false
	}
	if !isSolveName(fn.Name) && !returnsSolution(pass, fn.Type) {
		return nil, false
	}
	var ctxObj types.Object
	if len(first.Names) > 0 && first.Names[0].Name != "_" {
		ctxObj = pass.TypesInfo.Defs[first.Names[0]]
	}
	return ctxObj, true
}

func isSolveName(name string) bool {
	return len(name) >= 5 && name[:5] == "Solve"
}

func returnsSolution(pass *framework.Pass, ftype *ast.FuncType) bool {
	if ftype.Results == nil {
		return false
	}
	for _, res := range ftype.Results.List {
		tv, ok := pass.TypesInfo.Types[res.Type]
		if !ok {
			continue
		}
		if named := astx.NamedType(tv.Type); named != nil && named.Obj().Name() == "Solution" {
			return true
		}
	}
	return false
}

func loopBody(n ast.Node) (*ast.BlockStmt, bool) {
	switch l := n.(type) {
	case *ast.ForStmt:
		return l.Body, true
	case *ast.RangeStmt:
		return l.Body, true
	}
	return nil, false
}

// hasWork reports whether a loop body performs real per-iteration work: a
// call to a declared function or method (not a conversion or builtin), or
// a nested loop whose own body is more than a single bookkeeping
// statement.
func hasWork(info *types.Info, body *ast.BlockStmt) bool {
	work := false
	ast.Inspect(body, func(n ast.Node) bool {
		if work {
			return false
		}
		switch c := n.(type) {
		case *ast.FuncLit:
			// Building a closure is not per-iteration work; its body runs
			// elsewhere (and is checked as its own function if it solves).
			return false
		case *ast.CallExpr:
			if !astx.IsConversion(info, c) && !astx.IsBuiltinCall(info, c) {
				work = true
				return false
			}
		case *ast.ForStmt:
			if nontrivial(c.Body) {
				work = true
				return false
			}
		case *ast.RangeStmt:
			if nontrivial(c.Body) {
				work = true
				return false
			}
		}
		return true
	})
	return work
}

// nontrivial reports whether a nested loop body is more than one
// bookkeeping statement (so init loops like `for i := range a { a[i] = x }`
// inside an outer loop stay exempt, while DP kernels and multi-statement
// inner sweeps count as work).
func nontrivial(body *ast.BlockStmt) bool {
	return len(body.List) > 1
}
