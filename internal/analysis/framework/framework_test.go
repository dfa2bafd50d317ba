package framework

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func parseSrc(t *testing.T, src string) (*token.FileSet, *ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fix.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return fset, f
}

const suppressSrc = `package p

//sectorlint:ignore demo standalone comment covers the next line
var a = 1
var b = 2 //sectorlint:ignore demo trailing comment covers its own line
var c = 3
//sectorlint:ignore demo
//sectorlint:ignore
//sectorlint:ignorefile demo not a suppression: no word boundary
var d = 4
`

func TestApplySuppressions(t *testing.T) {
	fset, file := parseSrc(t, suppressSrc)
	tf := fset.File(file.Pos())
	mk := func(line int, analyzer string) Diagnostic {
		return Diagnostic{Pos: tf.LineStart(line), Analyzer: analyzer, Message: "m"}
	}
	in := []Diagnostic{
		mk(4, "demo"),  // covered by the standalone comment on line 3
		mk(5, "demo"),  // covered by the trailing comment on line 5
		mk(4, "other"), // different analyzer: survives
		mk(10, "demo"), // no well-formed comment near line 10: survives
	}
	out := applySuppressions(fset, []*ast.File{file}, in, nil, nil)

	var sectorlint, survived []Diagnostic
	for _, d := range out {
		if d.Analyzer == "sectorlint" {
			sectorlint = append(sectorlint, d)
		} else {
			survived = append(survived, d)
		}
	}
	if len(survived) != 2 {
		t.Fatalf("survived = %v, want the other@4 and demo@12 diagnostics", survived)
	}
	if survived[0].Analyzer != "other" || fset.Position(survived[1].Pos).Line != 10 {
		t.Errorf("wrong survivors: %v", survived)
	}
	// Line 7 has a reasonless suppression, line 8 an analyzer-less one; the
	// ignorefile spelling on line 9 must be ignored entirely.
	if len(sectorlint) != 2 {
		t.Fatalf("malformed-suppression diagnostics = %v, want 2", sectorlint)
	}
	if !strings.Contains(sectorlint[0].Message, "requires a reason") {
		t.Errorf("reasonless suppression message = %q", sectorlint[0].Message)
	}
	if !strings.Contains(sectorlint[1].Message, "must name the suppressed analyzer") {
		t.Errorf("analyzer-less suppression message = %q", sectorlint[1].Message)
	}
}

func TestApplySuppressionsNoComments(t *testing.T) {
	fset, file := parseSrc(t, "package p\n\nvar a = 1\n")
	tf := fset.File(file.Pos())
	in := []Diagnostic{{Pos: tf.LineStart(3), Analyzer: "demo", Message: "m"}}
	out := applySuppressions(fset, []*ast.File{file}, in, nil, nil)
	if len(out) != 1 {
		t.Fatalf("no suppressions present, diagnostics must pass through; got %v", out)
	}
}

func TestRunValidatesAnalyzerShape(t *testing.T) {
	fset, file := parseSrc(t, "package p\n")
	pkgs := []*Package{{ImportPath: "p", Fset: fset, Files: []*ast.File{file}}}
	if _, err := Run(fset, pkgs, []*Analyzer{{Name: "norun"}}); err == nil {
		t.Error("Run accepted an analyzer with no Run function")
	}
}

func TestRunSortsDiagnostics(t *testing.T) {
	fset, file := parseSrc(t, "package p\n\nvar a = 1\nvar b = 2\n")
	tf := fset.File(file.Pos())
	a := &Analyzer{
		Name: "demo",
		Run: func(p *Pass) error {
			p.Reportf(tf.LineStart(4), "second")
			p.Reportf(tf.LineStart(3), "first")
			return nil
		},
	}
	pkgs := []*Package{{ImportPath: "p", Fset: fset, Files: []*ast.File{file}}}
	diags, err := Run(fset, pkgs, []*Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 2 || diags[0].Message != "first" || diags[1].Message != "second" {
		t.Fatalf("diagnostics not sorted by position: %v", diags)
	}
}
