// Package analysis is a self-contained mirror of the core of
// golang.org/x/tools/go/analysis: the Analyzer / Pass / Diagnostic triple
// that modular static checkers are written against.
//
// The container this repository builds in has no module proxy access, so
// the real x/tools module cannot be fetched; rather than vendor ~26k lines
// of it (the toolchain's cmd/vendor copy drags in the generated stdlib
// manifest), this package re-implements the small, stable API surface the
// xviewlint analyzers need. The field and method names match x/tools
// exactly, so porting the analyzers onto the real module later is a matter
// of changing import paths.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one analysis function: its name, documentation,
// and the Run function applied to a single package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, suppression
	// directives (//lint:ignore xviewlint/<Name> reason) and -<Name>=0
	// style toggles. It must be a valid Go identifier.
	Name string

	// Doc is the analyzer's documentation: a one-line summary, a blank
	// line, then detail.
	Doc string

	// Run applies the analyzer to a package and returns an arbitrary
	// result (nil for pure reporters). Diagnostics are delivered through
	// pass.Report.
	Run func(*Pass) (any, error)
}

// Validate reports duplicate or malformed analyzer registrations.
func Validate(analyzers []*Analyzer) error {
	seen := make(map[string]bool)
	for _, a := range analyzers {
		if a.Name == "" || a.Run == nil {
			return fmt.Errorf("analysis: analyzer %q is incomplete", a.Name)
		}
		if seen[a.Name] {
			return fmt.Errorf("analysis: duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	return nil
}

// NewTypesInfo returns a types.Info with every map the analyzers read
// allocated, for whoever type-checks a package on a Pass's behalf (the
// loader, the fixture runner).
func NewTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}

// A Pass provides one analyzer with the parsed, type-checked view of one
// package, and collects its diagnostics.
type Pass struct {
	Analyzer *Analyzer

	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic. The driver installs it.
	Report func(Diagnostic)
}

// Reportf constructs a Diagnostic at pos from a format string.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding: a position and a message, plus the name of
// the analyzer that produced it (stamped by the driver).
type Diagnostic struct {
	Pos     token.Pos
	Message string
}
