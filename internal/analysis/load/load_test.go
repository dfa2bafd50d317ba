package load_test

import (
	"strings"
	"testing"

	"sectorpack/internal/analysis/load"
)

// TestPackagesLoadsGeom loads one real module package through the go-list
// export-data pipeline and checks the invariants every analyzer relies on:
// the package is type-checked, only non-test files are present, and the
// types.Info maps are populated.
func TestPackagesLoadsGeom(t *testing.T) {
	fset, pkgs, err := load.Packages("../../..", load.Config{}, "./internal/geom")
	if err != nil {
		t.Fatalf("Packages: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	p := pkgs[0]
	if p.Pkg.Name() != "geom" {
		t.Errorf("package name = %q, want geom", p.Pkg.Name())
	}
	if !strings.HasSuffix(p.ImportPath, "/geom") {
		t.Errorf("import path = %q, want .../geom", p.ImportPath)
	}
	if len(p.Files) == 0 {
		t.Fatal("no files loaded")
	}
	for _, f := range p.Files {
		name := fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			t.Errorf("test file %s loaded; only production files are analyzed", name)
		}
	}
	if len(p.TypesInfo.Types) == 0 || len(p.TypesInfo.Defs) == 0 {
		t.Error("types.Info not populated")
	}
	if p.Pkg.Scope().Lookup("NormAngle") == nil {
		t.Error("geom.NormAngle not in package scope; type-checking incomplete")
	}
}

// TestPackagesDefaultsToAll loads the whole module when no pattern is
// given and must include multiple packages spanning one shared FileSet.
func TestPackagesDefaultsToAll(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the full module")
	}
	_, pkgs, err := load.Packages("../../..", load.Config{})
	if err != nil {
		t.Fatalf("Packages: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded %d packages; the module has far more", len(pkgs))
	}
	for i := 1; i < len(pkgs); i++ {
		if pkgs[i-1].ImportPath >= pkgs[i].ImportPath {
			t.Fatalf("packages not sorted: %s before %s", pkgs[i-1].ImportPath, pkgs[i].ImportPath)
		}
	}
}

func TestPackagesBadDir(t *testing.T) {
	if _, _, err := load.Packages("/nonexistent-sectorlint-dir", load.Config{}); err == nil {
		t.Fatal("loading from a missing directory must fail")
	}
}
