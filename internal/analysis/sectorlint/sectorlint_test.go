package sectorlint

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestAnalyzersWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range Analyzers() {
		if a.Name == "" || a.Doc == "" {
			t.Errorf("analyzer %+v missing name or doc", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	want := []string{"anglenorm", "ctxloop", "floateq", "fsyncorder", "lockdiscipline"}
	for _, name := range want {
		if !seen[name] {
			t.Errorf("suite is missing analyzer %q", name)
		}
	}
	if len(seen) != len(want) {
		t.Errorf("suite has %d analyzers, want exactly %v", len(seen), want)
	}
}

func TestMainList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := Main(&stdout, &stderr, []string{"-list"}); code != 0 {
		t.Fatalf("-list exit = %d, stderr: %s", code, stderr.String())
	}
	for _, a := range Analyzers() {
		if !strings.Contains(stdout.String(), a.Name+": ") {
			t.Errorf("-list output missing %s", a.Name)
		}
	}
}

func TestMainUnknownAnalyzer(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := Main(&stdout, &stderr, []string{"-only", "nope"}); code != 2 {
		t.Fatalf("unknown -only exit = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "unknown analyzer") {
		t.Errorf("stderr = %q", stderr.String())
	}
}

func TestMainBadFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := Main(&stdout, &stderr, []string{"-definitely-not-a-flag"}); code != 2 {
		t.Fatalf("bad flag exit = %d, want 2", code)
	}
}

// TestMainCleanPackage runs the real pipeline end to end over this package
// (which must itself be lint-clean) from the package directory.
func TestMainCleanPackage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := Main(&stdout, &stderr, []string{"-only", "floateq,fsyncorder", "."})
	if code != 0 {
		t.Fatalf("exit = %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("expected no findings, got: %s", stdout.String())
	}
}

func TestSplitComma(t *testing.T) {
	cases := map[string][]string{
		"a":     {"a"},
		"a,b":   {"a", "b"},
		"a,,b,": {"a", "b"},
		"":      nil,
	}
	for in, want := range cases {
		if got := splitComma(in); !reflect.DeepEqual(got, want) {
			t.Errorf("splitComma(%q) = %v, want %v", in, got, want)
		}
	}
}
