// Package internalboundary enforces the repository's API boundary with
// four predicates on import paths.
//
// Who may not import rxview/internal/...: the programs under examples/.
// They are the documentation of the public API, so they are written
// against it alone. Every other package of the module — the root gateway,
// obs, server, cmd/ — may reach behind it; bench/ is a module of its own,
// and Go's internal-package rule already keeps it out, at compile time.
//
// Who may import rxview/internal/bench: rxview/cmd/benchrunner and the
// package itself. Who may import rxview/internal/paper: internal/bench, the
// package itself and test files. It holds the reference implementations no
// serving path reads (the topological order L, the reachability matrix M,
// the frontier evaluator); this keeps them out of every serving package's
// dependency closure, the root package's included, while tests keep L and M
// as oracles.
//
// Who may import a test-support package (TestSupport): test files, and the
// test-support packages themselves.
//
// The root package's boundary_test.go runs this analyzer over the loaded
// module, so `go test` and `go run ./cmd/xviewlint ./...` enforce the same
// predicates.
package internalboundary

import (
	"slices"
	"strconv"
	"strings"

	"rxview/internal/lint/analysis"
)

const (
	internalPrefix = "rxview/internal/"
	examplesPkg    = "rxview/examples"
	benchPkg       = "rxview/internal/bench"
	benchImporter  = "rxview/cmd/benchrunner"
	paperPkg       = "rxview/internal/paper"
)

// TestSupport lists the packages that exist for tests alone: only test
// files, and the packages themselves, may import them. The root package's
// reachability test reads the same list, and neither searches these
// packages for unreached code nor takes them for roots.
var TestSupport = []string{"rxview/internal/lint/linttest", "rxview/internal/testkit"}

var Analyzer = &analysis.Analyzer{
	Name: "internalboundary",
	Doc: "examples/ may not import rxview/internal/..., only cmd/benchrunner may import rxview/internal/bench, " +
		"only internal/bench and tests may import rxview/internal/paper, " +
		"and only tests may import a test-support package\n\n" +
		"The examples document the public API, so they are written against it " +
		"alone. The paper's experiment harness, internal/bench, is for " +
		"cmd/benchrunner alone, and the paper-literal code it times is for it " +
		"and for tests. A test-support package holds what only tests reach.",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	path := pass.Pkg.Path()
	for _, f := range pass.Files {
		test := strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go")
		for _, imp := range f.Imports {
			val, _ := strconv.Unquote(imp.Path.Value)
			if why := breach(path, test, val); why != "" {
				pass.Reportf(imp.Path.Pos(), "package %s imports %s: %s", path, val, why)
			}
		}
	}
	return nil, nil
}

// within reports whether path is pkg or a package below it.
func within(path, pkg string) bool {
	return path == pkg || strings.HasPrefix(path, pkg+"/")
}

// withinAny reports whether path is within one of pkgs.
func withinAny(path string, pkgs []string) bool {
	return slices.ContainsFunc(pkgs, func(pkg string) bool { return within(path, pkg) })
}

// breach says why a file of the package at pkgPath, a test file or not, may
// not import imp; "" if it may.
func breach(pkgPath string, test bool, imp string) string {
	switch {
	case within(imp, benchPkg) && pkgPath != benchImporter && !within(pkgPath, benchPkg):
		return "only " + benchImporter + " may import the experiment harness"
	case within(imp, paperPkg) && !test && !within(pkgPath, benchPkg) && !within(pkgPath, paperPkg):
		return "only the experiment harness and tests may import the paper-literal code"
	case withinAny(imp, TestSupport) && !test && !withinAny(pkgPath, TestSupport):
		return "only tests may import a test-support package"
	case strings.HasPrefix(imp, internalPrefix) && within(pkgPath, examplesPkg):
		return "examples are written against the public API alone"
	}
	return ""
}
