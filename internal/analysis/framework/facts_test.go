package framework

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// mapImporter resolves imports among in-test packages.
type mapImporter map[string]*types.Package

func (m mapImporter) Import(path string) (*types.Package, error) {
	if p, ok := m[path]; ok {
		return p, nil
	}
	return nil, &importError{path}
}

type importError struct{ path string }

func (e *importError) Error() string { return "no test package " + e.path }

type srcPkg struct{ path, src string }

// checkPkgs parses and type-checks one file per package, resolving
// cross-package imports among them.
func checkPkgs(t *testing.T, srcs ...srcPkg) (*token.FileSet, []*Package) {
	t.Helper()
	fset := token.NewFileSet()
	imp := mapImporter{}
	var pkgs []*Package
	for _, sp := range srcs {
		fname := strings.ReplaceAll(sp.path, "/", "_") + ".go"
		f, err := parser.ParseFile(fset, fname, sp.src, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse %s: %v", sp.path, err)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(sp.path, fset, []*ast.File{f}, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", sp.path, err)
		}
		imp[sp.path] = tpkg
		pkgs = append(pkgs, &Package{
			ImportPath: sp.path, Fset: fset, Files: []*ast.File{f},
			Pkg: tpkg, TypesInfo: info,
		})
	}
	return fset, pkgs
}

type testFact struct{ Payload string }

func (*testFact) AFact() {}

func TestFactsWireRoundTrip(t *testing.T) {
	registerFactTypes(&Analyzer{FactTypes: []Fact{(*testFact)(nil)}})
	in := []wireFact{
		{Key: "o:F", Fact: &testFact{Payload: "hello"}},
		{Key: "m:T.M", Fact: &testFact{Payload: "method"}},
	}
	raw, err := EncodeFacts(in)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	out, err := DecodeFacts(raw)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(out) != len(in) {
		t.Fatalf("round-trip length = %d, want %d", len(out), len(in))
	}
	for i := range in {
		wantKey, wantFact := in[i].Key, in[i].Fact
		gotKey, gotFact := out[i].Key, out[i].Fact
		if gotKey != wantKey {
			t.Errorf("fact %d key = %q, want %q", i, gotKey, wantKey)
		}
		g, ok := gotFact.(*testFact)
		if !ok || g.Payload != wantFact.(*testFact).Payload {
			t.Errorf("fact %d = %#v, want payload %q", i, gotFact, wantFact.(*testFact).Payload)
		}
	}
}

func TestDecodeFactsRejectsGarbage(t *testing.T) {
	if _, err := DecodeFacts([]byte("not gob")); err == nil {
		t.Fatal("DecodeFacts accepted garbage bytes")
	}
}

// TestFactsCrossPackage drives the real Run path: the pass over package a
// exports an object fact, the pass over dependent package b
// imports them back through the serialized store.
func TestFactsCrossPackage(t *testing.T) {
	fset, loaded := checkPkgs(t,
		srcPkg{path: "a", src: `package a
func F() {}
`},
		srcPkg{path: "b", src: `package b
import "a"
var _ = a.F
`},
	)
	// Hand Run the dependent first: topoOrder must fix it.
	pkgs := []*Package{loaded[1], loaded[0]}
	var gotObj string
	a := &Analyzer{
		Name:      "factdemo",
		FactTypes: []Fact{(*testFact)(nil)},
		Run: func(p *Pass) error {
			switch p.Pkg.Path() {
			case "a":
				fobj, _ := p.Pkg.Scope().Lookup("F").(*types.Func)
				p.ExportObjectFact(fobj, &testFact{Payload: "obj-from-a"})
				// Same-package import sees the pending export.
				var pending testFact
				if !p.ImportObjectFact(fobj, &pending) || pending.Payload != "obj-from-a" {
					t.Errorf("same-package pending import failed: %#v", pending)
				}
			case "b":
				for _, obj := range p.TypesInfo.Uses {
					fn, ok := obj.(*types.Func)
					if !ok || fn.Name() != "F" {
						continue
					}
					var f testFact
					if p.ImportObjectFact(fn, &f) {
						gotObj = f.Payload
					}
				}
			}
			return nil
		},
	}
	if _, err := Run(fset, pkgs, []*Analyzer{a}); err != nil {
		t.Fatal(err)
	}
	if gotObj != "obj-from-a" {
		t.Errorf("cross-package object fact = %q, want obj-from-a", gotObj)
	}
}

func TestTopoOrderDependenciesFirst(t *testing.T) {
	_, pkgs := checkPkgs(t,
		srcPkg{path: "a", src: "package a\nvar A = 1\n"},
		srcPkg{path: "b", src: "package b\nimport \"a\"\nvar B = a.A\n"},
		srcPkg{path: "c", src: "package c\nimport \"b\"\nvar _ = b.B\n"},
	)
	// checkPkgs needs dependency order to type-check; shuffle the slice
	// before handing it to topoOrder.
	shuffled := []*Package{pkgs[2], pkgs[0], pkgs[1]} // c, a, b
	var got []string
	for _, p := range topoOrder(shuffled) {
		got = append(got, p.ImportPath)
	}
	want := []string{"a", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("topoOrder = %v, want %v", got, want)
		}
	}
}

func TestStaleSuppressionAudit(t *testing.T) {
	fset, file := parseSrc(t, `package p

//sectorlint:ignore demo this one still matches
var a = 1

//sectorlint:ignore demo this one is stale
var b = 2

//sectorlint:ignore skipped this analyzer did not run
var c = 3

//sectorlint:ignore retryidm this analyzer is not in the suite
var d = 4
`)
	tf := fset.File(file.Pos())
	in := []Diagnostic{{Pos: tf.LineStart(4), Analyzer: "demo", Message: "m"}}
	ran := map[string]bool{"demo": true}
	suite := map[string]bool{"demo": true, "skipped": true}
	out := applySuppressions(fset, []*ast.File{file}, in, ran, suite)
	if len(out) != 2 {
		t.Fatalf("diagnostics = %v, want the stale and the unknown-analyzer findings", out)
	}
	if !strings.Contains(out[0].Message, "stale suppression") ||
		fset.Position(out[0].Pos).Line != 6 {
		t.Errorf("stale finding = %+v, want stale-suppression at line 6", out[0])
	}
	if !strings.Contains(out[1].Message, "unknown analyzer") ||
		fset.Position(out[1].Pos).Line != 12 {
		t.Errorf("unknown finding = %+v, want unknown-analyzer at line 12", out[1])
	}
	// Without the audit, the same input yields no findings at all.
	if quiet := applySuppressions(fset, []*ast.File{file}, in, ran, nil); len(quiet) != 0 {
		t.Errorf("audit off: diagnostics = %v, want none", quiet)
	}
}
