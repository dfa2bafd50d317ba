package analysistest

import (
	"fmt"
	"go/ast"
	"strings"
	"testing"

	"sectorpack/internal/analysis/framework"
)

// recorder captures harness failures instead of failing the real test.
type recorder struct {
	errs   []string
	fatals []string
}

func (r *recorder) Helper() {}
func (r *recorder) Errorf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}
func (r *recorder) Fatalf(format string, args ...any) {
	r.fatals = append(r.fatals, fmt.Sprintf(format, args...))
	panic(r) // mirror Fatalf's control flow: stop the harness
}

func runRecorded(t *testing.T, a *framework.Analyzer, paths ...string) *recorder {
	t.Helper()
	r := &recorder{}
	func() {
		defer func() {
			if p := recover(); p != nil && p != any(r) {
				panic(p)
			}
		}()
		Run(r, TestData(t), a, paths...)
	}()
	return r
}

// stubAnalyzer reports one diagnostic on every function whose name is
// listed, letting the tests steer exactly which wants get satisfied.
func stubAnalyzer(flag ...string) *framework.Analyzer {
	flagged := map[string]bool{}
	for _, f := range flag {
		flagged[f] = true
	}
	return &framework.Analyzer{
		Name: "stub",
		Doc:  "test stub",
		Run: func(p *framework.Pass) error {
			for _, f := range p.Files {
				for _, decl := range f.Decls {
					if fd, ok := decl.(*ast.FuncDecl); ok && flagged[fd.Name.Name] {
						p.Reportf(fd.Pos(), "stub finding on %s", fd.Name.Name)
					}
				}
			}
			return nil
		},
	}
}

func TestRunMatchesWants(t *testing.T) {
	r := runRecorded(t, stubAnalyzer("flagged"), "demo")
	if len(r.errs) != 0 || len(r.fatals) != 0 {
		t.Fatalf("exact match must pass; errs=%v fatals=%v", r.errs, r.fatals)
	}
}

func TestRunReportsUnexpectedDiagnostic(t *testing.T) {
	r := runRecorded(t, stubAnalyzer("flagged", "clean"), "demo")
	if len(r.errs) != 1 || !strings.Contains(r.errs[0], "unexpected diagnostic") {
		t.Fatalf("diagnostic without a want must fail the test; errs=%v", r.errs)
	}
}

func TestRunReportsUnmatchedWant(t *testing.T) {
	r := runRecorded(t, stubAnalyzer(), "demo")
	if len(r.errs) != 1 || !strings.Contains(r.errs[0], "no diagnostic matched") {
		t.Fatalf("want without a diagnostic must fail the test; errs=%v", r.errs)
	}
}

func TestRunUnknownFixture(t *testing.T) {
	r := runRecorded(t, stubAnalyzer(), "no-such-fixture")
	if len(r.fatals) != 1 {
		t.Fatalf("missing fixture must be fatal; fatals=%v", r.fatals)
	}
}

// TestRunReportsSetDependentDiagnostics: an analyzer whose findings on
// demo appear only when peer is analyzed in the same run fails the test,
// even though the joint run matches every want.
func TestRunReportsSetDependentDiagnostics(t *testing.T) {
	flagger := stubAnalyzer("flagged")
	passes := 0
	a := &framework.Analyzer{
		Name: "stub",
		Doc:  "test stub that flags only on its second pass",
		Run: func(p *framework.Pass) error {
			passes++
			if passes != 2 {
				return nil
			}
			return flagger.Run(p)
		},
	}
	r := runRecorded(t, a, "peer", "demo")
	if len(r.errs) != 1 || !strings.Contains(r.errs[0], "demo's diagnostics depend on the other packages") {
		t.Fatalf("set-dependent diagnostics must fail the test; errs=%v fatals=%v", r.errs, r.fatals)
	}
}

func TestParsePatterns(t *testing.T) {
	got, err := parsePatterns("`one` \"two\"")
	if err != nil || len(got) != 2 || got[0] != "one" || got[1] != "two" {
		t.Fatalf("parsePatterns = %v, %v", got, err)
	}
	for _, bad := range []string{"", "unquoted", "`unterminated"} {
		if _, err := parsePatterns(bad); err == nil {
			t.Errorf("parsePatterns(%q) must fail", bad)
		}
	}
}
