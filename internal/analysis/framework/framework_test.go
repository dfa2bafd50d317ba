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
	if _, err := Run(fset, pkgs, []*Analyzer{{Name: "norun"}}, Options{}); err == nil {
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
	diags, err := Run(fset, pkgs, []*Analyzer{a}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 2 || diags[0].Message != "first" || diags[1].Message != "second" {
		t.Fatalf("diagnostics not sorted by position: %v", diags)
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
