// Package internalboundary enforces the repository's API boundary with
// two predicates on import paths.
//
// Who may import rxview/internal/... at all: packages under internal/
// itself, the root rxview package (the public API gateway), rxview/obs (the
// telemetry facade: pure aliases over internal/obs) and the module's own
// command-line tools, rxview/cmd/... — xviewlint links the analyzer suite,
// benchrunner calls the paper's experiment harness. Everything else —
// server, examples, external test packages, bench/ — goes through the
// public API.
//
// Who may import rxview/internal/bench: rxview/cmd/benchrunner and the
// package itself. The harness pulls in the reference implementations no
// serving path reads (reach.Matrix, xpath.FrontierEvaluator); this keeps
// them out of every other package's dependency closure, the root
// package's included.
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
	cmdPrefix      = "rxview/cmd/"
	benchPkg       = "rxview/internal/bench"
	benchImporter  = "rxview/cmd/benchrunner"
)

// gatewayImporters lists the library packages allowed to import
// rxview/internal/... from outside internal/ itself.
var gatewayImporters = map[string]bool{
	"rxview":     true, // the public API gateway (tests in package rxview included)
	"rxview/obs": true, // telemetry gateway: aliases internal/obs for the server layer and bench/
}

var Analyzer = &analysis.Analyzer{
	Name: "internalboundary",
	Doc: "only rxview, rxview/obs and rxview/cmd/... may import rxview/internal/..., and only cmd/benchrunner rxview/internal/bench\n\n" +
		"The root package is the supported gateway to the implementation " +
		"(rxview/obs aliases the telemetry core, nothing more) and the module's own " +
		"cmd/ tools may reach behind it; server, examples and external test packages " +
		"must go through the public API. The paper's experiment harness, " +
		"internal/bench, is for cmd/benchrunner alone.",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	path := pass.Pkg.Path()
	for _, f := range pass.Files {
		checkFile(path, f, func(pos token.Pos, imp, why string) {
			pass.Reportf(pos, "package %s imports %s: %s", path, imp, why)
		})
	}
	return nil, nil
}

// allowed reports whether a package at path may import rxview/internal/...
func allowed(path string) bool {
	return gatewayImporters[path] || strings.HasPrefix(path, cmdPrefix) ||
		path == "rxview/internal" || strings.HasPrefix(path, internalPrefix)
}

func isBench(path string) bool {
	return path == benchPkg || strings.HasPrefix(path, benchPkg+"/")
}

// breach says why a package at pkgPath may not import imp; "" if it may.
func breach(pkgPath, imp string) string {
	switch {
	case isBench(imp) && pkgPath != benchImporter && !isBench(pkgPath):
		return "only " + benchImporter + " may import the experiment harness"
	case strings.HasPrefix(imp, internalPrefix) && !allowed(pkgPath):
		return "only rxview, rxview/obs and rxview/cmd/... may import internal packages"
	}
	return ""
}

// checkFile applies both predicates to one file. It is the shared core of
// the analyzer and CheckTree.
func checkFile(pkgPath string, f *ast.File, report func(pos token.Pos, imp, why string)) {
	for _, imp := range f.Imports {
		val, _ := strconv.Unquote(imp.Path.Value)
		if why := breach(pkgPath, val); why != "" {
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
		} else if f.Name.Name != "rxview" {
			// Root-directory files in package rxview_test (or any other
			// package clause) are not the gateway package.
			pkgPath = "rxview_test"
		}
		checkFile(pkgPath, f, func(pos token.Pos, imp, why string) {
			out = append(out, Violation{Pos: fset.Position(pos), PkgPath: pkgPath, Import: imp, Why: why})
		})
		return nil
	})
	return out, err
}
