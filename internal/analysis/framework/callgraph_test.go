package framework

import (
	"strings"
	"testing"
)

func keys(nodes []*CallNode) []string {
	var out []string
	for _, n := range nodes {
		out = append(out, n.Key)
	}
	return out
}

func contains(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}

func TestCallGraphDirectCallsAndMethodValues(t *testing.T) {
	_, pkgs := checkPkgs(t, srcPkg{path: "p", src: `package p

type T struct{}

func (T) M() {}

func g() {}

func f() {
	g()
	var x T
	h := x.M // method value: a may-call edge even without an invocation
	_ = h
}
`})
	graph := BuildCallGraph(pkgs)

	if !contains(graph.callees("p.o:f"), "p.o:g") {
		t.Errorf("f's callees = %v, want direct call edge to p.o:g", graph.callees("p.o:f"))
	}
	if !contains(graph.callees("p.o:f"), "p.m:T.M") {
		t.Errorf("f's callees = %v, want method-value edge to p.m:T.M", graph.callees("p.o:f"))
	}
	if !contains(keys(graph.Callers("p.o:g")), "p.o:f") {
		t.Errorf("g's callers = %v, want p.o:f", keys(graph.Callers("p.o:g")))
	}
}

func TestCallGraphInterfaceDispatchCHA(t *testing.T) {
	_, pkgs := checkPkgs(t, srcPkg{path: "p", src: `package p

type Doer interface{ Do() }

type A struct{}

func (A) Do() {}

type B struct{}

func (*B) Do() {}

func drive(d Doer) { d.Do() }
`})
	graph := BuildCallGraph(pkgs)

	// The interface-method node is abstract (no body) and drive calls it.
	if !contains(graph.callees("p.o:drive"), "p.m:Doer.Do") {
		t.Fatalf("drive's callees = %v, want p.m:Doer.Do", graph.callees("p.o:drive"))
	}
	// Callers of both implementations walk back through the abstract node
	// to the dynamic call site.
	for _, impl := range []string{"p.m:A.Do", "p.m:B.Do"} {
		callers := keys(graph.Callers(impl))
		if !contains(callers, "p.o:drive") {
			t.Errorf("callers of %s = %v, want p.o:drive via interface dispatch", impl, callers)
		}
	}
}

func TestCallGraphFunctionLiterals(t *testing.T) {
	_, pkgs := checkPkgs(t, srcPkg{path: "p", src: `package p

func leaf() {}

func parent() {
	fn := func() { leaf() }
	fn()
}
`})
	graph := BuildCallGraph(pkgs)

	lit := "p.o:parent$0"
	if graph.Node(lit) == nil {
		t.Fatalf("no node for the literal %s; nodes of p = %v", lit, keys(graph.NodesOf("p")))
	}
	if !contains(graph.callees("p.o:parent"), lit) {
		t.Errorf("parent's callees = %v, want the literal %s", graph.callees("p.o:parent"), lit)
	}
	if !contains(graph.callees(lit), "p.o:leaf") {
		t.Errorf("literal's callees = %v, want p.o:leaf", graph.callees(lit))
	}
	reach := graph.ReachableFrom("p.o:parent")
	if !reach["p.o:leaf"] {
		t.Errorf("leaf not reachable from parent through the literal: %v", reach)
	}
}

func TestCallGraphCrossPackage(t *testing.T) {
	_, pkgs := checkPkgs(t,
		srcPkg{path: "a", src: "package a\nfunc Helper() {}\n"},
		srcPkg{path: "b", src: "package b\nimport \"a\"\nfunc Use() { a.Helper() }\n"},
	)
	graph := BuildCallGraph(pkgs)
	if !contains(keys(graph.Callers("a.o:Helper")), "b.o:Use") {
		t.Errorf("Helper's callers = %v, want b.o:Use across the package boundary",
			keys(graph.Callers("a.o:Helper")))
	}
}

func TestNodesOfSortedAndScoped(t *testing.T) {
	_, pkgs := checkPkgs(t,
		srcPkg{path: "a", src: "package a\nfunc Z() {}\nfunc A() {}\n"},
		srcPkg{path: "b", src: "package b\nfunc Only() {}\n"},
	)
	graph := BuildCallGraph(pkgs)
	got := keys(graph.NodesOf("a"))
	if len(got) != 2 || got[0] != "a.o:A" || got[1] != "a.o:Z" {
		t.Errorf("NodesOf(a) = %v, want [a.o:A a.o:Z]", got)
	}
	for _, k := range got {
		if strings.HasPrefix(k, "b.") {
			t.Errorf("NodesOf(a) leaked node %s from b", k)
		}
	}
}
