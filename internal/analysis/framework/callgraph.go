// The intra-module call graph. Built once per Run (when any analyzer sets
// NeedsCallGraph) over every loaded package and shared by all passes, it
// is a deliberately over-approximate "may call" relation — the right
// polarity for lint: a lock-discipline helper is only safe if EVERY caller
// holds the lock, so missing edges would hide bugs while spurious ones
// merely demand a suppression.
//
// Edges:
//
//   - Every mention of a *types.Func in a function's body is an edge —
//     direct calls, method calls, and method VALUES (f := x.M; f())
//     alike. A function that merely receives a reference may pass it
//     anywhere, so reference = may-call.
//   - A function literal is its own node (key "parent$n" in source
//     order), with an edge from its enclosing function: the parent either
//     calls it or hands it to something that may.
//   - Interface dispatch is resolved CHA-style: for every named interface
//     declared in the module and every named module type implementing it,
//     each interface method gets an edge to the concrete method. A call
//     through the interface therefore reaches the implementations in two
//     hops via the interface method's (body-less) node, and Callers on a
//     concrete method walks back through it transparently.
//
// Node keys reuse the fact keying (package path + ObjectFactKey) so
// analyzers can move between facts and graph nodes without translation.
package framework

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
)

// CallNode is one function-shaped unit in the graph.
type CallNode struct {
	// Key is the node's identity: "<pkgpath>.o:<name>" for functions,
	// "<pkgpath>.m:<Type>.<Method>" for methods, parent key + "$<n>" for
	// function literals.
	Key string
	// Fn is the declared *types.Func; nil for function literals and for
	// body-less interface-method nodes.
	Fn *types.Func
	// Decl is the *ast.FuncDecl or *ast.FuncLit; nil for interface-method
	// nodes.
	Decl ast.Node
	// Body is the function body; nil for interface-method nodes.
	Body *ast.BlockStmt
	// Pkg is the loaded package the body lives in; nil for
	// interface-method nodes of non-module packages.
	Pkg *Package

	callees map[string]bool
	callers map[string]bool
}

// CallGraph is the module-wide may-call relation.
type CallGraph struct {
	nodes map[string]*CallNode
}

// FuncKey returns fn's graph key, or "" when fn cannot be keyed.
func FuncKey(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	k := ObjectFactKey(fn)
	if k == "" {
		return ""
	}
	return fn.Pkg().Path() + "." + k
}

// Node returns the node for key, or nil.
func (g *CallGraph) Node(key string) *CallNode { return g.nodes[key] }

// NodesOf returns every node whose body lives in the package at path,
// sorted by key.
func (g *CallGraph) NodesOf(path string) []*CallNode {
	var out []*CallNode
	for _, n := range g.nodes {
		if n.Pkg != nil && n.Pkg.ImportPath == path && n.Body != nil {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// callees returns the sorted keys key's node may call (including keys of
// functions outside the module, which have no node).
func (g *CallGraph) callees(key string) []string {
	n := g.nodes[key]
	if n == nil {
		return nil
	}
	out := make([]string, 0, len(n.callees))
	for k := range n.callees {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Callers returns the module nodes that may call key, walking transparently
// back through body-less interface-method nodes: a caller that dispatches
// through an interface counts as a caller of every implementation.
func (g *CallGraph) Callers(key string) []*CallNode {
	seen := map[string]bool{}
	var out []*CallNode
	var visit func(k string)
	visit = func(k string) {
		n := g.nodes[k]
		if n == nil {
			return
		}
		for ck := range n.callers {
			if seen[ck] {
				continue
			}
			seen[ck] = true
			c := g.nodes[ck]
			if c == nil {
				continue
			}
			if c.Body == nil {
				// An abstract (interface-method) caller: whoever calls IT is
				// the real caller.
				visit(ck)
				continue
			}
			out = append(out, c)
		}
	}
	visit(key)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// ReachableFrom reports every node key reachable from start (excluding
// start itself unless it participates in a cycle), following callee edges
// through module nodes only.
func (g *CallGraph) ReachableFrom(start string) map[string]bool {
	seen := map[string]bool{}
	var visit func(k string)
	visit = func(k string) {
		n := g.nodes[k]
		if n == nil {
			return
		}
		for ck := range n.callees {
			if seen[ck] {
				continue
			}
			seen[ck] = true
			visit(ck)
		}
	}
	visit(start)
	return seen
}

// BuildCallGraph constructs the graph over the loaded packages.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{nodes: map[string]*CallNode{}}

	// Pass 1: one node per declared function and per function literal.
	type litParent struct {
		node *CallNode
		n    int
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			// Stack of enclosing function nodes; literals key off the top.
			var stack []*litParent
			var walk func(n ast.Node) bool
			walk = func(n ast.Node) bool {
				switch fn := n.(type) {
				case *ast.FuncDecl:
					obj, _ := pkg.TypesInfo.Defs[fn.Name].(*types.Func)
					key := FuncKey(obj)
					if key == "" || fn.Body == nil {
						return true
					}
					node := &CallNode{Key: key, Fn: obj, Decl: fn, Body: fn.Body, Pkg: pkg,
						callees: map[string]bool{}, callers: map[string]bool{}}
					g.nodes[key] = node
					stack = append(stack, &litParent{node: node})
					ast.Inspect(fn.Body, walk)
					stack = stack[:len(stack)-1]
					return false
				case *ast.FuncLit:
					if len(stack) == 0 {
						// A literal in a var initializer: key it off the file's
						// package path with a per-file counter-free position; use
						// the package-scope pseudo parent.
						key := fmt.Sprintf("%s.o:$init$%d", pkg.ImportPath, fn.Pos())
						node := &CallNode{Key: key, Decl: fn, Body: fn.Body, Pkg: pkg,
							callees: map[string]bool{}, callers: map[string]bool{}}
						g.nodes[key] = node
						stack = append(stack, &litParent{node: node})
						ast.Inspect(fn.Body, walk)
						stack = stack[:len(stack)-1]
						return false
					}
					parent := stack[len(stack)-1]
					key := fmt.Sprintf("%s$%d", parent.node.Key, parent.n)
					parent.n++
					node := &CallNode{Key: key, Decl: fn, Body: fn.Body, Pkg: pkg,
						callees: map[string]bool{}, callers: map[string]bool{}}
					g.nodes[key] = node
					// The parent may invoke (or hand off) the literal.
					parent.node.callees[key] = true
					stack = append(stack, &litParent{node: node})
					ast.Inspect(fn.Body, walk)
					stack = stack[:len(stack)-1]
					return false
				}
				return true
			}
			ast.Inspect(file, walk)
		}
	}

	// Pass 2: edges from every *types.Func mention inside each body,
	// skipping nested literal subtrees (they are their own nodes).
	for _, pkg := range pkgs {
		for _, node := range g.nodes {
			if node.Pkg != pkg || node.Body == nil {
				continue
			}
			addEdgesFromBody(g, pkg, node)
		}
	}

	// Pass 3: CHA interface-dispatch edges among module types.
	addInterfaceEdges(g, pkgs)

	// Reverse edges.
	for key, n := range g.nodes {
		for ck := range n.callees {
			if callee := g.nodes[ck]; callee != nil {
				callee.callers[key] = true
			}
		}
	}
	return g
}

// addEdgesFromBody records node → mentioned-function edges.
func addEdgesFromBody(g *CallGraph, pkg *Package, node *CallNode) {
	ast.Inspect(node.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // its own node; parent already has the edge
		}
		switch e := n.(type) {
		case *ast.Ident:
			if fn, ok := pkg.TypesInfo.Uses[e].(*types.Func); ok {
				if key := FuncKey(fn); key != "" {
					node.callees[key] = true
					ensureAbstract(g, fn, key)
				}
			}
		case *ast.SelectorExpr:
			// Method calls and method values resolve through Selections;
			// qualified identifiers (pkg.F) and method expressions (T.M)
			// resolve through Uses and are handled by the Ident case on
			// e.Sel via Uses as well.
			if sel, ok := pkg.TypesInfo.Selections[e]; ok {
				if fn, ok := sel.Obj().(*types.Func); ok {
					if key := FuncKey(fn); key != "" {
						node.callees[key] = true
						ensureAbstract(g, fn, key)
					}
				}
				return true
			}
			if fn, ok := pkg.TypesInfo.Uses[e.Sel].(*types.Func); ok {
				if key := FuncKey(fn); key != "" {
					node.callees[key] = true
					ensureAbstract(g, fn, key)
				}
			}
		}
		return true
	})
}

// ensureAbstract materializes a body-less node for interface methods so
// CHA edges and caller walks have a place to meet.
func ensureAbstract(g *CallGraph, fn *types.Func, key string) {
	if g.nodes[key] != nil {
		return
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		if types.IsInterface(recv.Type()) {
			g.nodes[key] = &CallNode{Key: key, Fn: fn,
				callees: map[string]bool{}, callers: map[string]bool{}}
		}
	}
}

// addInterfaceEdges links every module interface method to every module
// implementation of it.
func addInterfaceEdges(g *CallGraph, pkgs []*Package) {
	type ifaceInfo struct {
		named *types.Named
		iface *types.Interface
	}
	var ifaces []ifaceInfo
	var concrete []*types.Named
	for _, pkg := range pkgs {
		if pkg.Pkg == nil {
			continue
		}
		scope := pkg.Pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if iface, ok := named.Underlying().(*types.Interface); ok {
				if iface.NumMethods() > 0 {
					ifaces = append(ifaces, ifaceInfo{named: named, iface: iface})
				}
			} else {
				concrete = append(concrete, named)
			}
		}
	}
	for _, ii := range ifaces {
		for _, named := range concrete {
			impl := types.Implements(named, ii.iface) || types.Implements(types.NewPointer(named), ii.iface)
			if !impl {
				continue
			}
			mset := types.NewMethodSet(types.NewPointer(named))
			for i := 0; i < ii.iface.NumMethods(); i++ {
				im := ii.iface.Method(i)
				ikey := FuncKey(im)
				if ikey == "" {
					continue
				}
				ensureAbstract(g, im, ikey)
				sel := mset.Lookup(im.Pkg(), im.Name())
				if sel == nil {
					continue
				}
				cm, ok := sel.Obj().(*types.Func)
				if !ok {
					continue
				}
				ckey := FuncKey(cm)
				if ckey == "" {
					continue
				}
				if an := g.nodes[ikey]; an != nil {
					an.callees[ckey] = true
				}
			}
		}
	}
}
