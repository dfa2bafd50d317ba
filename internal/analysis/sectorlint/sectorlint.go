// Package sectorlint is the driver for the repository's invariant
// checkers: it loads type-checked packages, runs every registered
// analyzer over each package on its own, applies //sectorlint:ignore
// suppressions, and prints the surviving diagnostics one per line.
// cmd/sectorlint is a thin main around Main.
package sectorlint

import (
	"flag"
	"fmt"
	"io"
	"os"

	"sectorpack/internal/analysis/anglenorm"
	"sectorpack/internal/analysis/ctxloop"
	"sectorpack/internal/analysis/floateq"
	"sectorpack/internal/analysis/framework"
	"sectorpack/internal/analysis/fsyncorder"
	"sectorpack/internal/analysis/load"
	"sectorpack/internal/analysis/lockdiscipline"
)

// Analyzers returns the full sectorlint suite in deterministic order.
func Analyzers() []*framework.Analyzer {
	return []*framework.Analyzer{
		anglenorm.Analyzer,
		ctxloop.Analyzer,
		floateq.Analyzer,
		fsyncorder.Analyzer,
		lockdiscipline.Analyzer,
	}
}

// Main runs the suite and returns the process exit code: 0 clean, 1 when
// diagnostics were reported, 2 on usage or load errors.
func Main(stdout, stderr io.Writer, args []string) int {
	fs := flag.NewFlagSet("sectorlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and their invariants, then exit")
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	staleIgnores := fs.Bool("stale-ignores", false,
		"report //sectorlint:ignore comments that no longer suppress anything or name no analyzer in the suite")
	includeTests := fs.Bool("include-tests", false,
		"also analyze _test.go files (in-package tests join their package; external test packages load as <pkg>_test)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: sectorlint [-list] [-only a,b] [-stale-ignores] [-include-tests] [packages]\n\n"+
			"Runs the repository's solver-invariant analyzers over the given\n"+
			"package patterns (default ./...). Suppress a finding with\n"+
			"//sectorlint:ignore <analyzer> <reason> on or above its line.\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%s: %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		byName := map[string]*framework.Analyzer{}
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = analyzers[:0]
		for _, name := range splitComma(*only) {
			a, ok := byName[name]
			if !ok {
				fmt.Fprintf(stderr, "sectorlint: unknown analyzer %q\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "sectorlint: %v\n", err)
		return 2
	}
	fset, pkgs, err := load.Packages(dir, load.Config{IncludeTests: *includeTests}, fs.Args()...)
	if err != nil {
		fmt.Fprintf(stderr, "sectorlint: %v\n", err)
		return 2
	}
	var opts framework.Options
	if *staleIgnores {
		opts.StaleIgnores = Analyzers()
	}
	diags, err := framework.Run(fset, pkgs, analyzers, opts)
	if err != nil {
		fmt.Fprintf(stderr, "sectorlint: %v\n", err)
		return 2
	}

	for _, d := range diags {
		fmt.Fprintf(stdout, "%s: %s (%s)\n", fset.Position(d.Pos), d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "sectorlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}
