package load_test

import (
	"os"
	"path/filepath"
	"testing"

	"sectorpack/internal/analysis/load"
)

// writeModule lays out a throwaway module with one package carrying both
// an in-package and an external test file.
func writeModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module tmod\n\ngo 1.21\n",
		"p/p.go": `package p

func Exported() int { return 1 }

func helper() int { return 2 }
`,
		"p/p_test.go": `package p

func testOnlyHelper() int { return helper() }
`,
		"p/px_test.go": `package p_test

import "tmod/p"

var _ = p.Exported
`,
	}
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestPackagesExcludesTestsByDefault(t *testing.T) {
	dir := writeModule(t)
	_, pkgs, err := load.Packages(dir, load.Config{}, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	if got := len(pkgs[0].Files); got != 1 {
		t.Errorf("default load parsed %d files, want only p.go", got)
	}
}

func TestPackagesCfgIncludeTests(t *testing.T) {
	dir := writeModule(t)
	_, pkgs, err := load.Packages(dir, load.Config{IncludeTests: true}, "./...")
	if err != nil {
		t.Fatal(err)
	}
	byPath := map[string]int{}
	for _, p := range pkgs {
		byPath[p.ImportPath] = len(p.Files)
	}
	if got := byPath["tmod/p"]; got != 2 {
		t.Errorf("tmod/p has %d files, want p.go plus the in-package p_test.go", got)
	}
	if got := byPath["tmod/p_test"]; got != 1 {
		t.Errorf("external test package tmod/p_test has %d files, want 1", got)
	}
	// The in-package test file must see unexported declarations: the type
	// check above would have failed otherwise, but assert the symbol is
	// really in scope to keep the property explicit.
	for _, p := range pkgs {
		if p.ImportPath == "tmod/p" && p.Pkg.Scope().Lookup("testOnlyHelper") == nil {
			t.Error("in-package test declarations missing from tmod/p's scope")
		}
	}
}
