// Package sealedmut enforces the immutability contract of sealed
// versions. A dag.Version, core.Snapshot or
// rxview.Snapshot is an immutable epoch artifact shared by concurrent
// readers without locks; mutating one — directly, through a pointer, or
// through a slice returned by an aliasing accessor — is a data race
// against every in-flight query.
//
// Flagged, anywhere in the module:
//
//   - assignments (including op-assign and ++/--) whose destination is
//     reached through a value of a sealed type;
//   - element stores into slices returned by the aliasing accessors
//     (Children, Parents, Attr, Nodes) of a sealed type or of the
//     dag.Reader interface, and copy() with such a slice
//     as destination — directly on the call, or through a local bound to
//     the call by its only := or = in the function (ks := v.Children(u);
//     ks[0] = x). Provenance is not followed any further: not through a
//     second binding, a reslice, a struct field, a return or a call;
//   - the same stores through the read-only interfaces themselves.
//
// Not flagged: writes to a sealed value freshly constructed in the same
// function (a composite literal or new()) — that is how Seal() builds
// the next version before publishing it.
package sealedmut

import (
	"go/ast"
	"go/types"

	"rxview/internal/lint/analysis"
	"rxview/internal/lint/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "sealedmut",
	Doc: "sealed version values (dag.Version, Snapshot) and " +
		"read-only views (dag.Reader, aliasing accessor results) must not be mutated",
	Run: run,
}

// sealed value types: mutating one after Seal() races with readers.
var sealedTypes = [...][2]string{
	{"rxview/internal/dag", "Version"},
	{"rxview/internal/core", "Snapshot"},
	{"rxview", "Snapshot"},
}

// read-only interfaces: writes through them are never legitimate.
var sealedIfaces = [...][2]string{
	{"rxview/internal/dag", "Reader"},
}

// aliasMethods return memory shared with the sealed value; their results
// are documented "callers must not mutate".
var aliasMethods = map[string]bool{
	"Children": true,
	"Parents":  true,
	"Attr":     true,
	"Nodes":    true,
}

func isSealed(t types.Type) bool {
	for _, s := range sealedTypes {
		if lintutil.IsNamed(t, s[0], s[1]) {
			return true
		}
	}
	for _, s := range sealedIfaces {
		if lintutil.IsNamed(t, s[0], s[1]) {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fresh, aliased := localBindings(pass.TypesInfo, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						checkDest(pass, lhs, fresh, aliased)
					}
				case *ast.IncDecStmt:
					checkDest(pass, n.X, fresh, aliased)
				case *ast.CallExpr:
					// copy(dst, src) mutates dst exactly like dst[i] = v.
					if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "copy" &&
						pass.TypesInfo.Uses[id] == types.Universe.Lookup("copy") && len(n.Args) == 2 {
						checkDest(pass, &ast.IndexExpr{X: n.Args[0]}, fresh, aliased)
					}
				}
				return true
			})
		}
	}
	return nil, nil
}

// localBindings classifies the function's local variables by what := or =
// binds them to. fresh: a sealed value constructed here (composite literal,
// &composite, or new(T)) — writing through it is construction, not
// mutation. aliased: the result of an aliasing accessor, mapped to that
// call — the slice still aliases the sealed version. Both are
// flow-insensitive; a local bound a second time drops out of aliased (maps
// to nil), so that miss is a false negative, never a false alarm.
func localBindings(info *types.Info, body ast.Node) (fresh map[types.Object]bool, aliased map[types.Object]*ast.CallExpr) {
	fresh = make(map[types.Object]bool)
	aliased = make(map[types.Object]*ast.CallExpr)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		paired := len(as.Lhs) == len(as.Rhs)
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			if obj == nil {
				continue // the blank identifier
			}
			if paired && constructsSealed(info, as.Rhs[i]) {
				fresh[obj] = true
			}
			var call *ast.CallExpr
			if _, rebound := aliased[obj]; paired && !rebound {
				call = aliasCallOf(info, as.Rhs[i])
			}
			aliased[obj] = call
		}
		return true
	})
	return fresh, aliased
}

// aliasCallOf returns e if it is a call of an aliasing accessor on a sealed
// value or read-only interface, else nil.
func aliasCallOf(info *types.Info, e ast.Expr) *ast.CallExpr {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return nil
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok &&
		aliasMethods[sel.Sel.Name] && sealedExpr(info, sel.X) {
		return call
	}
	return nil
}

func constructsSealed(info *types.Info, e ast.Expr) bool {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.UnaryExpr:
		return constructsSealed(info, e.X)
	case *ast.CompositeLit:
		tv, ok := info.Types[e]
		return ok && isSealed(tv.Type)
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "new" &&
			info.Uses[id] == types.Universe.Lookup("new") && len(e.Args) == 1 {
			tv, ok := info.Types[e.Args[0]]
			return ok && isSealed(tv.Type)
		}
	}
	return false
}

// checkDest walks a store destination toward its root. The store is a
// violation if the access path passes through a sealed-typed expression
// or through an aliasing accessor call (or a local bound to one), unless
// the path's root is a fresh local under construction.
func checkDest(pass *analysis.Pass, dest ast.Expr, fresh map[types.Object]bool, aliased map[types.Object]*ast.CallExpr) {
	var sealedAt ast.Expr // deepest sealed expression on the path
	var aliasCall *ast.CallExpr
	e := ast.Unparen(dest)
walk:
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			e = ast.Unparen(x.X)
		case *ast.StarExpr:
			e = ast.Unparen(x.X)
		case *ast.SliceExpr:
			e = ast.Unparen(x.X)
		case *ast.SelectorExpr:
			// Selecting a field of a sealed value: the base is the
			// sealed expression the store goes through.
			if sealedExpr(pass.TypesInfo, x.X) {
				sealedAt = x.X
			}
			e = ast.Unparen(x.X)
		case *ast.CallExpr:
			aliasCall = aliasCallOf(pass.TypesInfo, x)
			break walk // a call result has no further addressable root
		case *ast.Ident:
			obj := pass.TypesInfo.Uses[x]
			if fresh[obj] {
				return // construction of a fresh value
			}
			if dest != e { // a store through the variable, not a rebinding of it
				aliasCall = aliased[obj]
				if sealedExpr(pass.TypesInfo, e) {
					// e.g. *p where p is *Version: the root itself is sealed.
					sealedAt = e
				}
			}
			break walk
		default:
			break walk
		}
	}
	switch {
	case aliasCall != nil:
		sel := ast.Unparen(aliasCall.Fun).(*ast.SelectorExpr)
		pass.Reportf(dest.Pos(), "mutating the result of %s.%s: aliasing accessor results are shared with the sealed version",
			typeName(pass, sel.X), sel.Sel.Name)
	case sealedAt != nil:
		pass.Reportf(dest.Pos(), "mutating sealed %s value: versions are immutable after Seal and shared by concurrent readers",
			typeName(pass, sealedAt))
	}
}

// sealedExpr reports whether e's type (possibly behind a pointer) is a
// sealed type or read-only interface.
func sealedExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[ast.Unparen(e)]
	return ok && isSealed(tv.Type)
}

func typeName(pass *analysis.Pass, e ast.Expr) string {
	tv, ok := pass.TypesInfo.Types[ast.Unparen(e)]
	if !ok {
		return "sealed"
	}
	return types.TypeString(lintutil.Deref(tv.Type), types.RelativeTo(pass.Pkg))
}
