// Package driver applies the xviewlint analyzers to loaded packages and
// post-processes their diagnostics: stamping analyzer names, applying
// //lint:ignore suppressions, and producing stable, sorted findings for
// the CLI and tests.
package driver

import (
	"fmt"
	"go/ast"
	"go/token"
	"slices"
	"sort"
	"strings"

	"rxview/internal/lint/analysis"
	"rxview/internal/lint/loader"
)

// Finding is one reported diagnostic, resolved to a position.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// suppression is one parsed //lint:ignore directive.
type suppression struct {
	analyzers     []string // analyzer names
	justification string
	used          bool
	pos           token.Position
}

// ignorePrefix is the directive grammar: //lint:ignore xviewlint/<name>[,<name>...] <justification>
// placed on the flagged line or the line immediately above it. The
// justification is mandatory; a bare directive is itself a finding.
const ignorePrefix = "lint:ignore "

func parseSuppressions(fset *token.FileSet, files []*ast.File) map[string]map[int]*suppression {
	byFile := make(map[string]map[int]*suppression)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, ignorePrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, ignorePrefix))
				which, justification, _ := strings.Cut(rest, " ")
				s := &suppression{
					justification: strings.TrimSpace(justification),
					pos:           fset.Position(c.Pos()),
				}
				for _, name := range strings.Split(which, ",") {
					name = strings.TrimPrefix(name, "xviewlint/")
					if name != "" {
						s.analyzers = append(s.analyzers, name)
					}
				}
				m := byFile[s.pos.Filename]
				if m == nil {
					m = make(map[int]*suppression)
					byFile[s.pos.Filename] = m
				}
				m[s.pos.Line] = s
			}
		}
	}
	return byFile
}

// Run applies every analyzer to every package and returns the surviving
// findings, sorted by position. Suppressed diagnostics are dropped;
// malformed suppressions (no justification) and unused ones are reported
// as findings of the pseudo-analyzer "suppression".
func Run(pkgs []*loader.Package, analyzers []*analysis.Analyzer) ([]Finding, error) {
	if err := analysis.Validate(analyzers); err != nil {
		return nil, err
	}
	var findings []Finding
	for _, p := range pkgs {
		sups := parseSuppressions(p.Fset, p.Files)
		for _, a := range analyzers {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      p.Fset,
				Files:     p.Files,
				Pkg:       p.Pkg,
				TypesInfo: p.TypesInfo,
			}
			pass.Report = func(d analysis.Diagnostic) {
				pos := p.Fset.Position(d.Pos)
				if m := sups[pos.Filename]; m != nil {
					for _, line := range []int{pos.Line, pos.Line - 1} {
						if s := m[line]; s != nil && slices.Contains(s.analyzers, a.Name) && s.justification != "" {
							s.used = true
							return
						}
					}
				}
				findings = append(findings, Finding{Analyzer: a.Name, Pos: pos, Message: d.Message})
			}
			if _, err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("driver: %s on %s: %w", a.Name, p.ImportPath, err)
			}
		}
		for _, m := range sups {
			for _, s := range m {
				if s.justification == "" {
					findings = append(findings, Finding{
						Analyzer: "suppression",
						Pos:      s.pos,
						Message:  "lint:ignore directive requires a justification after the analyzer name",
					})
				}
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Message < b.Message
	})
	return findings, nil
}
