// Package framework is a minimal, dependency-free analogue of
// golang.org/x/tools/go/analysis: named analyzers run over type-checked
// packages and report position-tagged diagnostics. The x/tools module is
// not vendored in this repository, so sectorlint carries its own copy of
// the (tiny) subset it needs — the Analyzer/Pass/Diagnostic shape is kept
// deliberately close to the upstream API so the analyzers would port to a
// real multichecker by changing imports.
//
// Every pass sees exactly one package and nothing else, so a package's
// diagnostics do not depend on which other packages the same run loads;
// packages are analyzed in the order given.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named invariant checker.
type Analyzer struct {
	// Name is the identifier used in diagnostics and in
	// //sectorlint:ignore comments.
	Name string
	// Doc is the one-paragraph description printed by `sectorlint -list`,
	// stating the invariant and the historical bug class it encodes.
	Doc string
	// Run analyzes a single package.
	Run func(*Pass) error
}

// Pass carries one type-checked package into an analyzer, mirroring
// analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Package is a loaded, type-checked module package ready to be analyzed.
type Package struct {
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	TypesInfo  *types.Info
}

// Options tunes a Run.
type Options struct {
	// StaleIgnores, when non-nil, is the full analyzer suite that
	// //sectorlint:ignore comments are audited against: an entry naming an
	// analyzer outside the suite (mistyped or retired) is reported, and so
	// is one naming an analyzer that ran but suppressed nothing, so
	// suppressions cannot outlive their bugs. Suite analyzers that did not
	// run are not audited.
	StaleIgnores []*Analyzer
}

// Run executes the analyzers over the packages and returns the surviving
// diagnostics: suppressions (//sectorlint:ignore comments) are applied,
// malformed (and, with opts.StaleIgnores, stale) suppressions are
// themselves reported, and the result is sorted by position. An analyzer
// error aborts the run.
func Run(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer, opts Options) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		if a.Run == nil {
			return nil, fmt.Errorf("analyzer %s has no Run", a.Name)
		}
		for _, pkg := range pkgs {
			p := &Pass{
				Analyzer:  a,
				Fset:      fset,
				Files:     pkg.Files,
				Pkg:       pkg.Pkg,
				TypesInfo: pkg.TypesInfo,
				diags:     &diags,
			}
			if err := a.Run(p); err != nil {
				return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, p.Pkg.Path(), err)
			}
		}
	}

	var files []*ast.File
	for _, pkg := range pkgs {
		files = append(files, pkg.Files...)
	}
	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	var suite map[string]bool
	if opts.StaleIgnores != nil {
		suite = map[string]bool{}
		for _, a := range opts.StaleIgnores {
			suite[a.Name] = true
		}
	}
	diags = applySuppressions(fset, files, diags, ran, suite)
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return diags[i].Message < diags[j].Message
	})
	return diags, nil
}
