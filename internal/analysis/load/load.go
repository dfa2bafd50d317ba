// Package load turns `go list` patterns into type-checked
// framework.Packages without golang.org/x/tools/go/packages.
//
// The strategy is the classic vet-driver one: a single
// `go list -export -deps -json` invocation enumerates the target packages
// and produces compiler export data for every dependency (stdlib
// included), so each target is type-checked from source while all of its
// imports are resolved from export data — no per-import source
// re-checking and no network. On a warm build cache the whole repository
// loads in well under a second.
//
// By default only non-test GoFiles are analyzed: the solver invariants
// sectorlint encodes (cancellation, seam normalization, epsilon
// discipline) are production-code contracts, and tests legitimately
// violate several of them on purpose (bit-identity assertions compare
// floats with ==, fault harnesses build degraded solutions by hand). The
// Config.IncludeTests mode folds in-package _test.go files into their
// package and loads external _test packages as their own units — used in
// CI for the analyzers whose invariants DO bind test helpers (ctxloop,
// floateq), where a broken helper silently weakens every test using it.
package load

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"sectorpack/internal/analysis/framework"
)

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath   string
	Dir          string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Export       string
	Module       *struct{ Path string }
	Error        *struct{ Err string }
	DepsErrors   []struct{ Err string }
}

// Config tunes a load.
type Config struct {
	// IncludeTests folds each package's in-package _test.go files into its
	// file set and additionally loads external test packages
	// (package foo_test) as their own framework.Package with import path
	// "<pkg>_test". External test packages import the package under test
	// from its export data — compiled without test files, exactly the view
	// a real external test compilation gets.
	IncludeTests bool
}

// Packages loads and type-checks the module packages matched by the
// patterns (default "./..."), rooted at dir. Packages outside the module —
// dependencies, the standard library — are imported from export data and
// never analyzed.
func Packages(dir string, cfg Config, patterns ...string) (*token.FileSet, []*framework.Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{
		"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,GoFiles,TestGoFiles,XTestGoFiles,Export,Module,Error,DepsErrors",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list %v: %w\n%s", patterns, err, stderr.String())
	}

	modPath, err := modulePath(dir)
	if err != nil {
		return nil, nil, err
	}

	exports := map[string]string{}
	var targets []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("go list: decoding output: %w", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if p.Module == nil || p.Module.Path != modPath {
			continue
		}
		if p.Error != nil {
			return nil, nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		for _, de := range p.DepsErrors {
			return nil, nil, fmt.Errorf("go list: %s: dependency error: %s", p.ImportPath, de.Err)
		}
		targets = append(targets, p)
	}
	// Sort by import path so the analysis order, and with it any analyzer
	// error, is stable regardless of go tool internals.
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	if cfg.IncludeTests {
		// Test files may import packages no production file needs (httptest
		// and friends), which the base listing did not compile. A second
		// -test listing harvests export data for those; test-variant
		// pseudo-packages ("foo [foo.test]") never shadow real ones because
		// only missing keys are merged.
		if err := mergeTestExports(dir, patterns, exports); err != nil {
			return nil, nil, err
		}
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})

	var pkgs []*framework.Package
	var errs []error
	check := func(importPath, dir string, names []string) {
		files := make([]*ast.File, 0, len(names))
		for _, name := range names {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
			if err != nil {
				errs = append(errs, err)
				continue
			}
			files = append(files, f)
		}
		info := NewInfo()
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(importPath, fset, files, info)
		if err != nil {
			errs = append(errs, fmt.Errorf("type-checking %s: %w", importPath, err))
			return
		}
		pkgs = append(pkgs, &framework.Package{
			ImportPath: importPath,
			Fset:       fset,
			Files:      files,
			Pkg:        tpkg,
			TypesInfo:  info,
		})
	}
	for _, p := range targets {
		names := p.GoFiles
		if cfg.IncludeTests && len(p.TestGoFiles) > 0 {
			names = append(append([]string{}, p.GoFiles...), p.TestGoFiles...)
		}
		check(p.ImportPath, p.Dir, names)
		if cfg.IncludeTests && len(p.XTestGoFiles) > 0 {
			// The external test package imports the package under test
			// through its export data, which the -export -deps listing
			// already produced.
			check(p.ImportPath+"_test", p.Dir, p.XTestGoFiles)
		}
	}
	if len(errs) > 0 {
		return nil, nil, errors.Join(errs...)
	}
	return fset, pkgs, nil
}

// NewInfo allocates the types.Info maps every analyzer relies on.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
}

// mergeTestExports runs a second `go list -test` pass and folds export data
// for test-only dependencies into exports. Keys already present win: the
// plain listing's export of a package reflects its production compilation,
// which is the view external test packages must import.
func mergeTestExports(dir string, patterns []string, exports map[string]string) error {
	args := append([]string{
		"list", "-e", "-export", "-deps", "-test",
		"-json=ImportPath,Export",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go list -test %v: %w\n%s", patterns, err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return fmt.Errorf("go list -test: decoding output: %w", err)
		}
		if p.Export == "" || strings.Contains(p.ImportPath, " ") {
			continue // test-variant pseudo-packages never shadow real ones
		}
		if _, ok := exports[p.ImportPath]; !ok {
			exports[p.ImportPath] = p.Export
		}
	}
	return nil
}

// modulePath reads the module path governing dir.
func modulePath(dir string) (string, error) {
	cmd := exec.Command("go", "list", "-m")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go list -m: %w", err)
	}
	return string(bytes.TrimSpace(out)), nil
}
