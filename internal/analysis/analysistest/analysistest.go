// Package analysistest runs one framework.Analyzer over small fixture
// packages and checks its diagnostics against expectations written in the
// fixtures themselves, mirroring golang.org/x/tools/go/analysis/analysistest
// (which this repository does not vendor).
//
// Fixtures live under testdata/src/<importpath>/ next to the test; an
// expectation is a trailing comment on the line the diagnostic lands on:
//
//	for _, c := range in.Customers { // want `without consulting its context`
//
// Each string after `// want` is a regexp that must match the message of a
// distinct diagnostic reported on that line; diagnostics with no matching
// expectation, and expectations with no matching diagnostic, fail the test.
// Because the fixtures run through framework.Run, //sectorlint:ignore
// comments are honored, so the suppression path is testable the same way.
//
// When a test names several fixture packages, each one is also analyzed
// alone, and its diagnostics must be the same as in the joint run: an
// analyzer sees one package at a time, so what it reports about a package
// cannot depend on which other packages the run loads.
//
// Fixture imports of other fixtures resolve within testdata/src; imports of
// the standard library are type-checked from $GOROOT source, which keeps
// the harness free of go/build GOPATH plumbing and of any network use.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"sectorpack/internal/analysis/framework"
	"sectorpack/internal/analysis/load"
)

// TB is the slice of *testing.T the harness needs; taking the interface
// lets the harness's own tests observe failures instead of inheriting them.
type TB interface {
	Helper()
	Errorf(format string, args ...any)
	Fatalf(format string, args ...any)
}

// TestData returns the absolute testdata directory of the calling test's
// package.
func TestData(t TB) string {
	t.Helper()
	dir, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatalf("analysistest: resolving testdata: %v", err)
	}
	return dir
}

// Run loads testdata/src/<path> for each named fixture package, runs the
// analyzer over all of them together, and matches the resulting
// diagnostics against the fixtures' `// want` comments; then it checks
// that each package analyzed alone gets the same diagnostics.
func Run(t TB, testdata string, a *framework.Analyzer, paths ...string) {
	t.Helper()
	fset := token.NewFileSet()
	ld := &fixtureLoader{
		fset: fset,
		src:  filepath.Join(testdata, "src"),
		pkgs: map[string]*framework.Package{},
	}
	ld.std = importer.ForCompiler(fset, "source", nil)

	var pkgs []*framework.Package
	for _, path := range paths {
		if _, err := ld.Import(path); err != nil {
			t.Fatalf("analysistest: loading fixture %s: %v", path, err)
		}
		pkgs = append(pkgs, ld.pkgs[path])
	}

	analyzers := []*framework.Analyzer{a}
	diags, err := framework.Run(fset, pkgs, analyzers, framework.Options{})
	if err != nil {
		t.Fatalf("analysistest: running %s: %v", a.Name, err)
	}

	wants, err := collectWants(fset, pkgs)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		if !wants.match(pos, d.Message) {
			t.Errorf("%s:%d: unexpected diagnostic: %s (%s)", pos.Filename, pos.Line, d.Message, d.Analyzer)
		}
	}
	for _, w := range wants.unmatched() {
		t.Errorf("%s:%d: no diagnostic matched `%s`", w.file, w.line, w.re)
	}

	if len(pkgs) < 2 {
		return
	}
	for _, pkg := range pkgs {
		alone, err := framework.Run(fset, []*framework.Package{pkg}, analyzers, framework.Options{})
		if err != nil {
			t.Fatalf("analysistest: running %s on %s alone: %v", a.Name, pkg.ImportPath, err)
		}
		got, want := render(fset, pkg, alone), render(fset, pkg, diags)
		if got != want {
			t.Errorf("%s's diagnostics depend on the other packages in the run\nalone:\n%s\nwith %v:\n%s",
				pkg.ImportPath, got, paths, want)
		}
	}
}

// render lists the diagnostics that land in pkg's files, one per line.
func render(fset *token.FileSet, pkg *framework.Package, diags []framework.Diagnostic) string {
	files := map[string]bool{}
	for _, f := range pkg.Files {
		files[fset.Position(f.Pos()).Filename] = true
	}
	var b strings.Builder
	for _, d := range diags {
		if pos := fset.Position(d.Pos); files[pos.Filename] {
			fmt.Fprintf(&b, "%s: %s (%s)\n", pos, d.Message, d.Analyzer)
		}
	}
	return b.String()
}

// fixtureLoader type-checks fixture packages on demand, resolving
// fixture-to-fixture imports from testdata/src and everything else from
// standard-library source.
type fixtureLoader struct {
	fset *token.FileSet
	src  string
	std  types.Importer
	pkgs map[string]*framework.Package
	// loading guards against import cycles among fixtures, which would
	// otherwise recurse forever.
	loading []string
}

func (ld *fixtureLoader) Import(path string) (*types.Package, error) {
	if p, ok := ld.pkgs[path]; ok {
		return p.Pkg, nil
	}
	dir := filepath.Join(ld.src, filepath.FromSlash(path))
	if st, err := os.Stat(dir); err != nil || !st.IsDir() {
		return ld.std.Import(path)
	}
	for _, active := range ld.loading {
		if active == path {
			return nil, fmt.Errorf("fixture import cycle through %q", path)
		}
	}
	ld.loading = append(ld.loading, path)
	defer func() { ld.loading = ld.loading[:len(ld.loading)-1] }()

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("fixture %q has no Go files", path)
	}
	info := load.NewInfo()
	conf := types.Config{Importer: ld}
	tpkg, err := conf.Check(path, ld.fset, files, info)
	if err != nil {
		return nil, err
	}
	ld.pkgs[path] = &framework.Package{
		ImportPath: path,
		Fset:       ld.fset,
		Files:      files,
		Pkg:        tpkg,
		TypesInfo:  info,
	}
	return tpkg, nil
}

// want is one expectation: a regexp tied to a fixture file line.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

type wantSet struct {
	byLine map[string]map[int][]*want
	all    []*want
}

// wantRe finds the expectation marker; everything after it is parsed as Go
// string literals, so both `backquoted` and "quoted" regexps work.
var wantRe = regexp.MustCompile(`// want (.*)$`)

func collectWants(fset *token.FileSet, pkgs []*framework.Package) (*wantSet, error) {
	ws := &wantSet{byLine: map[string]map[int][]*want{}}
	seen := map[string]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			name := fset.Position(f.Pos()).Filename
			if seen[name] {
				continue
			}
			seen[name] = true
			data, err := os.ReadFile(name)
			if err != nil {
				return nil, err
			}
			for i, lineText := range strings.Split(string(data), "\n") {
				m := wantRe.FindStringSubmatch(lineText)
				if m == nil {
					continue
				}
				patterns, err := parsePatterns(m[1])
				if err != nil {
					return nil, fmt.Errorf("%s:%d: %w", name, i+1, err)
				}
				for _, p := range patterns {
					re, err := regexp.Compile(p)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad want pattern %q: %w", name, i+1, p, err)
					}
					w := &want{file: name, line: i + 1, re: re}
					if ws.byLine[name] == nil {
						ws.byLine[name] = map[int][]*want{}
					}
					ws.byLine[name][i+1] = append(ws.byLine[name][i+1], w)
					ws.all = append(ws.all, w)
				}
			}
		}
	}
	return ws, nil
}

// parsePatterns reads a sequence of Go string literals from the text after
// the `// want` marker.
func parsePatterns(s string) ([]string, error) {
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		if s[0] != '"' && s[0] != '`' {
			return nil, fmt.Errorf("want expectations must be quoted or backquoted strings, got %q", s)
		}
		end := strings.IndexByte(s[1:], s[0])
		if end < 0 {
			return nil, fmt.Errorf("unterminated want string in %q", s)
		}
		lit := s[:end+2]
		p, err := strconv.Unquote(lit)
		if err != nil {
			return nil, fmt.Errorf("bad want string %s: %w", lit, err)
		}
		out = append(out, p)
		s = strings.TrimSpace(s[end+2:])
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("want marker with no pattern")
	}
	return out, nil
}

// match consumes the first unmatched expectation on the diagnostic's line
// whose regexp matches the message.
func (ws *wantSet) match(pos token.Position, message string) bool {
	for _, w := range ws.byLine[pos.Filename][pos.Line] {
		if !w.matched && w.re.MatchString(message) {
			w.matched = true
			return true
		}
	}
	return false
}

func (ws *wantSet) unmatched() []*want {
	var out []*want
	for _, w := range ws.all {
		if !w.matched {
			out = append(out, w)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].file != out[j].file {
			return out[i].file < out[j].file
		}
		return out[i].line < out[j].line
	})
	return out
}
