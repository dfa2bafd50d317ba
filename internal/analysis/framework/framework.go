// Package framework is a minimal, dependency-free analogue of
// golang.org/x/tools/go/analysis: named analyzers run over type-checked
// packages and report position-tagged diagnostics. The x/tools module is
// not vendored in this repository, so sectorlint carries its own copy of
// the (tiny) subset it needs — the Analyzer/Pass/Diagnostic shape is kept
// deliberately close to the upstream API so the analyzers would port to a
// real multichecker by changing imports.
//
// Two capabilities beyond single-package AST passes exist:
//
//   - Facts: per-package analyzers run in dependency order; a pass may
//     export facts about its package's objects (serialized through gob, see
//     facts.go) which passes over dependent packages import back.
//   - Call graph: analyzers setting NeedsCallGraph receive a module-wide
//     may-call graph (callgraph.go) on their Pass, for invariants like
//     "every caller of this helper holds the lock".
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
)

// Analyzer is one named invariant checker.
type Analyzer struct {
	// Name is the identifier used in diagnostics and in
	// //sectorlint:ignore comments.
	Name string
	// Doc is the one-paragraph description printed by `sectorlint -list`,
	// stating the invariant and the historical bug class it encodes.
	Doc string
	// Run analyzes a single package. Packages are visited in dependency
	// order (imports before importers), so facts exported by a dependency
	// are importable here.
	Run func(*Pass) error
	// FactTypes lists the concrete fact types this analyzer exports, for
	// gob registration. Required when the analyzer uses Export*Fact.
	FactTypes []Fact
	// NeedsCallGraph requests the module call graph on the pass.
	NeedsCallGraph bool
}

// Pass carries one type-checked package into an analyzer, mirroring
// analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Graph is the module call graph; non-nil iff the analyzer set
	// NeedsCallGraph.
	Graph *CallGraph

	diags    *[]Diagnostic
	facts    *factDB
	exported *[]wireFact
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

// Run executes the analyzers over the packages with default options.
func Run(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	return RunOpts(fset, pkgs, analyzers, Options{})
}

// RunOpts executes the analyzers over the packages and returns the
// surviving diagnostics: suppressions (//sectorlint:ignore comments) are
// applied, malformed (and, with opts.StaleIgnores, stale) suppressions are
// themselves reported, and the result is sorted by position. An analyzer
// error aborts the run.
func RunOpts(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer, opts Options) ([]Diagnostic, error) {
	var diags []Diagnostic
	ordered := topoOrder(pkgs)

	var graph *CallGraph
	for _, a := range analyzers {
		if a.NeedsCallGraph {
			graph = BuildCallGraph(pkgs)
			break
		}
	}

	facts := newFactDB()
	for _, a := range analyzers {
		if a.Run == nil {
			return nil, fmt.Errorf("analyzer %s has no Run", a.Name)
		}
		registerFactTypes(a)
		for _, pkg := range ordered {
			var exported []wireFact
			p := &Pass{
				Analyzer:  a,
				Fset:      fset,
				Files:     pkg.Files,
				Pkg:       pkg.Pkg,
				TypesInfo: pkg.TypesInfo,
				diags:     &diags,
				facts:     facts,
				exported:  &exported,
			}
			if a.NeedsCallGraph {
				p.Graph = graph
			}
			if err := a.Run(p); err != nil {
				return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, p.Pkg.Path(), err)
			}
			if err := facts.seal(a.Name, pkg.ImportPath, exported); err != nil {
				return nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
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

// topoOrder sorts the packages dependencies-first: a package appears after
// every loaded package it imports. The import relation is read from the
// files' import specs (matched against loaded import paths), so it works
// on real module loads and fixture packages alike. Ties and independent
// packages keep import-path order, making the result deterministic.
func topoOrder(pkgs []*Package) []*Package {
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.ImportPath] = p
	}
	paths := make([]string, 0, len(pkgs))
	for _, p := range pkgs {
		paths = append(paths, p.ImportPath)
	}
	sort.Strings(paths)

	deps := map[string][]string{}
	for _, path := range paths {
		p := byPath[path]
		seen := map[string]bool{}
		for _, f := range p.Files {
			for _, imp := range f.Imports {
				ip, err := strconv.Unquote(imp.Path.Value)
				if err != nil || seen[ip] {
					continue
				}
				seen[ip] = true
				if _, ok := byPath[ip]; ok && ip != path {
					deps[path] = append(deps[path], ip)
				}
			}
		}
		sort.Strings(deps[path])
	}

	out := make([]*Package, 0, len(pkgs))
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(path string)
	visit = func(path string) {
		switch state[path] {
		case 1, 2:
			return // cycle (impossible in valid Go) or already emitted
		}
		state[path] = 1
		for _, d := range deps[path] {
			visit(d)
		}
		state[path] = 2
		out = append(out, byPath[path])
	}
	for _, path := range paths {
		visit(path)
	}
	return out
}
