// Package ctxflow enforces context propagation below the public API
// surface. The paper's pipeline is context-aware end to end (cancellation
// is checked between phases); these rules keep it that way:
//
//  1. context.Background() / context.TODO() are forbidden in library
//     packages — main packages and test files are the only context
//     roots. Deliberate detachments (a graceful-shutdown timeout, an
//     engine-lifetime context for its recovery prober) carry a
//     //lint:ignore justification.
//  2. An exported function or method that takes a context.Context must
//     actually use it: dropping the parameter silently breaks the
//     cancellation contract the signature advertises.
package ctxflow

import (
	"go/ast"
	"go/types"
	"strings"

	"rxview/internal/lint/analysis"
	"rxview/internal/lint/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "contexts must flow: no context.Background/TODO below the API surface, " +
		"and no ignored ctx parameters",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	if pass.Pkg.Name() == "main" {
		return nil, nil // binaries are context roots
	}
	for _, f := range pass.Files {
		pos := pass.Fset.Position(f.Pos())
		if strings.HasSuffix(pos.Filename, "_test.go") {
			continue // tests are context roots too
		}
		checkRoots(pass, f)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			if ctxVar := ctxParam(pass.TypesInfo, fd); ctxVar != nil && !usesVar(pass.TypesInfo, fd.Body, ctxVar) {
				pass.Reportf(fd.Name.Pos(), "exported %s takes a context.Context but never uses it", fd.Name.Name)
			}
		}
	}
	return nil, nil
}

// checkRoots flags context.Background / context.TODO calls.
func checkRoots(pass *analysis.Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, name := range [...]string{"Background", "TODO"} {
			if lintutil.IsPkgFunc(pass.TypesInfo, call, "context", name) {
				pass.Reportf(call.Pos(), "context.%s below the API surface: accept and propagate the caller's ctx", name)
			}
		}
		return true
	})
}

// ctxParam returns the context.Context parameter variable, or nil.
func ctxParam(info *types.Info, fd *ast.FuncDecl) *types.Var {
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			obj, ok := info.Defs[name].(*types.Var)
			if ok && lintutil.IsNamed(obj.Type(), "context", "Context") && name.Name != "_" {
				return obj
			}
		}
	}
	return nil
}

func usesVar(info *types.Info, body ast.Node, v *types.Var) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == v {
			found = true
		}
		return !found
	})
	return found
}
