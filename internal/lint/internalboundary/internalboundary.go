// Package internalboundary enforces the repository's API boundary with
// three predicates on import paths.
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
// serving path reads (the reachability matrix M, the frontier evaluator);
// this keeps them out of every serving package's dependency closure, the
// root package's included, while tests keep M as an oracle.
//
// The root package's boundary_test.go calls CheckTree, so `go test` and
// `go run ./cmd/xviewlint ./...` enforce the same predicates.
package internalboundary

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
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

var Analyzer = &analysis.Analyzer{
	Name: "internalboundary",
	Doc: "examples/ may not import rxview/internal/..., only cmd/benchrunner may import rxview/internal/bench, " +
		"and only internal/bench and tests may import rxview/internal/paper\n\n" +
		"The examples document the public API, so they are written against it " +
		"alone. The paper's experiment harness, internal/bench, is for " +
		"cmd/benchrunner alone, and the paper-literal code it times is for it " +
		"and for tests.",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	path := pass.Pkg.Path()
	for _, f := range pass.Files {
		test := strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go")
		checkFile(path, test, f, func(pos token.Pos, imp, why string) {
			pass.Reportf(pos, "package %s imports %s: %s", path, imp, why)
		})
	}
	return nil, nil
}

// within reports whether path is pkg or a package below it.
func within(path, pkg string) bool {
	return path == pkg || strings.HasPrefix(path, pkg+"/")
}

// breach says why a file of the package at pkgPath, a test file or not, may
// not import imp; "" if it may.
func breach(pkgPath string, test bool, imp string) string {
	switch {
	case within(imp, benchPkg) && pkgPath != benchImporter && !within(pkgPath, benchPkg):
		return "only " + benchImporter + " may import the experiment harness"
	case within(imp, paperPkg) && !test && !within(pkgPath, benchPkg) && !within(pkgPath, paperPkg):
		return "only the experiment harness and tests may import the paper-literal code"
	case strings.HasPrefix(imp, internalPrefix) && within(pkgPath, examplesPkg):
		return "examples are written against the public API alone"
	}
	return ""
}

// checkFile applies the predicates to one file. It is the shared core of
// the analyzer and CheckTree.
func checkFile(pkgPath string, test bool, f *ast.File, report func(pos token.Pos, imp, why string)) {
	for _, imp := range f.Imports {
		val, _ := strconv.Unquote(imp.Path.Value)
		if why := breach(pkgPath, test, val); why != "" {
			report(imp.Path.Pos(), val, why)
		}
	}
}

// Violation is one boundary breach found by CheckTree.
type Violation struct {
	Pos     token.Position
	PkgPath string
	Import  string
	Why     string
}

// CheckTree walks a repository tree rooted at the module directory and
// applies the boundary rule to every Go file, test files included, by an
// imports-only parse. testdata/ subtrees are skipped: fixtures deliberately
// violate rules there.
func CheckTree(root string) ([]Violation, error) {
	var out []Violation
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || (strings.HasPrefix(name, ".") && path != root) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, perr := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if perr != nil {
			return perr
		}
		rel, rerr := filepath.Rel(root, path)
		if rerr != nil {
			return rerr
		}
		pkgPath := "rxview"
		if dir := filepath.ToSlash(filepath.Dir(rel)); dir != "." {
			pkgPath = "rxview/" + dir
		}
		checkFile(pkgPath, strings.HasSuffix(path, "_test.go"), f, func(pos token.Pos, imp, why string) {
			out = append(out, Violation{Pos: fset.Position(pos), PkgPath: pkgPath, Import: imp, Why: why})
		})
		return nil
	})
	return out, err
}
