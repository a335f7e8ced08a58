// Package obshotpath enforces the two-sided API contract of the obs
// telemetry package. Recording a sample must be cheap enough for the
// single-writer apply loop and the wait-free read path, so obs splits its
// surface: pre-registered handles (Counter.Inc, Histogram.Observe,
// SlowLog.Record) are one or two atomic operations, while the snapshot
// side (Registry.Gather, WritePrometheus, WriteVars, Histogram.Snapshot,
// SlowLog.Entries) takes the registry or ring mutex and allocates. The
// analyzer makes the split mechanical: within the hot call graphs —
// functions annotated `// xviewlint:writer-loop` (the apply loop) or
// `// xviewlint:hot-path` (wait-free read paths) and everything they
// transitively call within the package — any call into the locked
// snapshot API is flagged.
//
// Registration (Registry.NewCounter and friends) is deliberately not in
// the forbidden set: the lazy sync.Once registration idiom runs it from a
// hot function exactly once, and the handles it returns are the fast
// path. The check targets per-operation locked work, not one-time setup.
package obshotpath

import (
	"go/ast"
	"go/types"

	"rxview/internal/lint/analysis"
	"rxview/internal/lint/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "obshotpath",
	Doc: "the writer-loop and // xviewlint:hot-path call graphs record telemetry only through " +
		"the atomic fast-path obs API; the locked snapshot side (Gather, WritePrometheus, " +
		"WriteVars, Snapshot, Entries) is reserved for scrape handlers and tools",
	Run: run,
}

// lockedAPI names the obs functions and methods that take the registry or
// ring mutex per call — the scrape-side surface.
var lockedAPI = map[string]bool{
	"Gather":          true, // (*Registry).Gather
	"GatherAll":       true,
	"WritePrometheus": true,
	"WriteVars":       true,
	"ParseExposition": true,
	"Snapshot":        true, // (*Histogram).Snapshot
	"Entries":         true, // (*SlowLog).Entries
}

func run(pass *analysis.Pass) (any, error) {
	hot := hotReachable(pass)
	if len(hot) == 0 {
		return nil, nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hot[pass.TypesInfo.Defs[fd.Name]] {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn, ok := lintutil.CalleeObj(pass.TypesInfo, call).(*types.Func)
				if ok && isObsPkg(fn.Pkg()) && lockedAPI[fn.Name()] {
					pass.Reportf(call.Pos(), "locked obs API %s on the hot path: record through pre-registered atomic handles; the Gather/snapshot side belongs in scrape handlers and tools", fn.Name())
				}
				return true
			})
		}
	}
	return nil, nil
}

// isObsPkg reports whether pkg is the telemetry core or its public
// gateway (whose forwarding functions live in rxview/obs while methods on
// the aliased types resolve to rxview/internal/obs).
func isObsPkg(pkg *types.Package) bool {
	if pkg == nil {
		return false
	}
	return pkg.Path() == "rxview/obs" || pkg.Path() == "rxview/internal/obs"
}

// hotReachable computes the function objects reachable from the hot roots
// (writer-loop and hot-path annotations) through static intra-package
// calls, including calls made inside function literals of a reachable
// function.
func hotReachable(pass *analysis.Pass) map[types.Object]bool {
	callees := make(map[types.Object][]types.Object)
	var roots []types.Object
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			obj := pass.TypesInfo.Defs[fd.Name]
			if obj == nil {
				continue
			}
			if lintutil.HasDirective("writer-loop", fd.Doc) ||
				lintutil.HasDirective("hot-path", fd.Doc) {
				roots = append(roots, obj)
			}
			if fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := lintutil.CalleeObj(pass.TypesInfo, call)
				if fn, ok := callee.(*types.Func); ok && fn.Pkg() == pass.Pkg {
					callees[obj] = append(callees[obj], fn)
				}
				return true
			})
		}
	}
	reach := make(map[types.Object]bool)
	work := roots
	for len(work) > 0 {
		fn := work[len(work)-1]
		work = work[:len(work)-1]
		if reach[fn] {
			continue
		}
		reach[fn] = true
		work = append(work, callees[fn]...)
	}
	return reach
}
