package framework

import (
	"go/ast"
	"go/token"
	"strings"
)

// ignorePrefix introduces a suppression comment:
//
//	//sectorlint:ignore <analyzer>[,<analyzer>...] <reason>
//
// The comment suppresses matching diagnostics reported on its own line or,
// for a comment standing alone on a line, on the line directly below. The
// reason is mandatory: a bare suppression is itself reported as a
// violation, so every silenced finding carries its justification in the
// source.
const ignorePrefix = "//sectorlint:ignore"

// suppression is one parsed ignore comment.
type suppression struct {
	pos       token.Pos
	analyzers []string
	reason    string
}

// parseSuppressions extracts every ignore comment from the files. Comments
// with no reason are returned with an empty reason; the caller converts
// those into diagnostics.
func parseSuppressions(fset *token.FileSet, files []*ast.File) []suppression {
	var out []suppression
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				if !strings.HasPrefix(text, ignorePrefix) {
					continue
				}
				rest := strings.TrimPrefix(text, ignorePrefix)
				// Require a word boundary so e.g. a hypothetical
				// //sectorlint:ignorefile is not half-parsed.
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue
				}
				fields := strings.Fields(rest)
				s := suppression{pos: c.Pos()}
				if len(fields) > 0 {
					s.analyzers = strings.Split(fields[0], ",")
					s.reason = strings.TrimSpace(strings.Join(fields[1:], " "))
				}
				out = append(out, s)
			}
		}
	}
	return out
}

// applySuppressions filters diags through the files' ignore comments and
// appends a "sectorlint" diagnostic for every malformed suppression (one
// naming no analyzer, or one without a reason). Well-formed suppressions
// match diagnostics whose analyzer is listed and whose line equals the
// comment's line or the line after it (the standalone-comment case).
//
// With a non-nil suite, every well-formed suppression entry is audited:
// one naming an analyzer outside the suite (mistyped, or retired) is
// reported, and one naming an analyzer in ran that suppressed nothing is
// reported as stale. Suite analyzers missing from ran are skipped: a run
// restricted with -only cannot see their findings this run.
func applySuppressions(fset *token.FileSet, files []*ast.File, diags []Diagnostic, ran, suite map[string]bool) []Diagnostic {
	sups := parseSuppressions(fset, files)
	if len(sups) == 0 {
		return diags
	}
	type key struct {
		file string
		line int
		name string
	}
	type cover struct {
		pos  token.Pos
		hits int
	}
	covered := map[key]*cover{}
	var out []Diagnostic
	for _, s := range sups {
		pos := fset.Position(s.pos)
		if len(s.analyzers) == 0 {
			out = append(out, Diagnostic{
				Pos:      s.pos,
				Analyzer: "sectorlint",
				Message:  "sectorlint:ignore must name the suppressed analyzer(s): //sectorlint:ignore <analyzer> <reason>",
			})
			continue
		}
		if s.reason == "" {
			out = append(out, Diagnostic{
				Pos:      s.pos,
				Analyzer: "sectorlint",
				Message:  "sectorlint:ignore requires a reason: //sectorlint:ignore " + strings.Join(s.analyzers, ",") + " <reason>",
			})
			continue
		}
		for _, name := range s.analyzers {
			c := &cover{pos: s.pos}
			// The same (file, line, analyzer) may be covered twice (a
			// standalone comment above a line that also has a trailing one);
			// both share hit accounting through the first registered cover.
			for _, line := range []int{pos.Line, pos.Line + 1} {
				k := key{pos.Filename, line, name}
				if covered[k] == nil {
					covered[k] = c
				}
			}
		}
	}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		if c := covered[key{pos.Filename, pos.Line, d.Analyzer}]; c != nil {
			c.hits++
			continue
		}
		out = append(out, d)
	}
	if suite != nil {
		// Re-walk the well-formed suppressions in source order; each
		// analyzer entry that ran but matched nothing is stale. A
		// suppression fully shadowed by an earlier one on the same lines
		// owns no cover at all and is stale by the same standard.
		for _, s := range sups {
			if len(s.analyzers) == 0 || s.reason == "" {
				continue
			}
			pos := fset.Position(s.pos)
			for _, name := range s.analyzers {
				if !suite[name] {
					out = append(out, Diagnostic{
						Pos:      s.pos,
						Analyzer: "sectorlint",
						Message: "unknown analyzer: //sectorlint:ignore " + name +
							" names no analyzer in the suite; fix the name or delete the suppression",
					})
					continue
				}
				if !ran[name] {
					continue
				}
				hits := 0
				var owned *cover
				for _, line := range []int{pos.Line, pos.Line + 1} {
					c := covered[key{pos.Filename, line, name}]
					if c != nil && c.pos == s.pos && c != owned {
						owned = c
						hits += c.hits
					}
				}
				if hits == 0 {
					out = append(out, Diagnostic{
						Pos:      s.pos,
						Analyzer: "sectorlint",
						Message: "stale suppression: //sectorlint:ignore " + name +
							" no longer suppresses anything here; delete it so the next real finding is not silenced",
					})
				}
			}
		}
	}
	return out
}
