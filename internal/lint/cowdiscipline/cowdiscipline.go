// Package cowdiscipline enforces the copy-on-write discipline inside the
// one package that implements it, internal/cow. An Array shares a two-level
// block spine across epochs: a block or chunk reached from `.blocks` may be
// referenced by an already-published Sealed, so storing into it in place
// corrupts history. Every such store must instead go through own, which
// copies a shared block or chunk before handing out a mutable one. Other
// packages cannot reach the spine at all — its fields are unexported — so
// the package boundary enforces there what this analyzer enforces here.
//
// The analyzer classifies each local value by provenance, in source
// order:
//
//   - owned:  the result of an own call, a fresh make/new/
//     composite literal, or append over an owned slice — safe to
//     mutate;
//   - spine:  anything reached from a `.blocks` field, or derived from a
//     spine-classified value — shared with sealed epochs;
//   - unknown: parameters and everything else — not flagged.
//
// A store whose destination derives from spine provenance is reported.
// The CoW primitives themselves must make exactly such stores (they
// install the copied node into the spine); they carry a
// `// xviewlint:cow-primitive` directive, which exempts one function and
// is itself audited in review.
package cowdiscipline

import (
	"go/ast"
	"go/token"
	"go/types"

	"rxview/internal/lint/analysis"
	"rxview/internal/lint/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "cowdiscipline",
	Doc: "in internal/cow, stores into spine-reachable blocks and chunks " +
		"must go through own (or be annotated // xviewlint:cow-primitive)",
	Run: run,
}

// checkedPkg limits the analyzer to the package that owns the block spine.
// Everything else is out of scope; the fixtures use the same import path.
func checkedPkg(path string) bool { return path == "rxview/internal/cow" }

type provenance int

const (
	unknown provenance = iota
	owned
	spine
)

func run(pass *analysis.Pass) (any, error) {
	if !checkedPkg(pass.Pkg.Path()) {
		return nil, nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if lintutil.HasDirective("cow-primitive", fd.Doc) {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil, nil
}

type checker struct {
	pass *analysis.Pass
	// vars holds the provenance of local variables, updated in source
	// order as assignments are seen.
	vars map[types.Object]provenance
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	c := &checker{pass: pass, vars: make(map[types.Object]provenance)}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				c.checkDest(lhs)
			}
			if len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						c.bind(id, c.classify(n.Rhs[i]))
					}
				}
			}
		case *ast.IncDecStmt:
			c.checkDest(n.X)
		case *ast.RangeStmt:
			// `for i, ch := range spineExpr` binds ch to shared memory.
			if n.Tok == token.DEFINE && n.Value != nil {
				if id, ok := n.Value.(*ast.Ident); ok {
					c.bind(id, c.classify(n.X))
				}
			}
		case *ast.CallExpr:
			// copy's destination mutates whatever backs it, even when it
			// is a bare variable (which an assignment would merely rebind).
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "copy" &&
				c.pass.TypesInfo.Uses[id] == types.Universe.Lookup("copy") && len(n.Args) == 2 {
				if c.classify(n.Args[0]) == spine {
					c.report(n.Args[0])
				}
			}
		}
		return true
	})
}

func (c *checker) bind(id *ast.Ident, p provenance) {
	if id.Name == "_" {
		return
	}
	info := c.pass.TypesInfo
	if obj := info.Defs[id]; obj != nil {
		c.vars[obj] = p
	} else if obj := info.Uses[id]; obj != nil {
		c.vars[obj] = p
	}
}

// classify computes the provenance of an expression.
func (c *checker) classify(e ast.Expr) provenance {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.Ident:
		if obj := c.pass.TypesInfo.Uses[e]; obj != nil {
			return c.vars[obj]
		}
		return unknown
	case *ast.SelectorExpr:
		// The spine of a freshly built array (Clone's `c := Array[T]{}`)
		// is owned; only a spine hanging off shared state is shared.
		if base := c.classify(e.X); base == owned {
			return owned
		}
		if e.Sel.Name == "blocks" {
			return spine
		}
		return c.classify(e.X)
	case *ast.IndexExpr:
		return c.classify(e.X)
	case *ast.SliceExpr:
		return c.classify(e.X)
	case *ast.StarExpr:
		return c.classify(e.X)
	case *ast.UnaryExpr:
		return c.classify(e.X)
	case *ast.CompositeLit:
		return owned
	case *ast.CallExpr:
		return c.classifyCall(e)
	}
	return unknown
}

func (c *checker) classifyCall(call *ast.CallExpr) provenance {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch {
		case fun.Name == "make" || fun.Name == "new":
			if c.pass.TypesInfo.Uses[fun] == types.Universe.Lookup(fun.Name) {
				return owned
			}
		case fun.Name == "append":
			// append inherits its base's provenance: appending to a
			// spine-shared row can write into shared capacity.
			if c.pass.TypesInfo.Uses[fun] == types.Universe.Lookup("append") && len(call.Args) > 0 {
				return c.classify(call.Args[0])
			}
		}
		if ownsResult(fun.Name) {
			return owned
		}
	case *ast.SelectorExpr:
		if ownsResult(fun.Sel.Name) {
			return owned
		}
	}
	return unknown
}

// ownsResult reports whether a callee by this name hands back mutable
// memory: own, which copies a shared chunk before returning it.
func ownsResult(name string) bool { return name == "own" }

// checkDest flags a store whose destination has spine provenance.
func (c *checker) checkDest(dest ast.Expr) {
	switch d := ast.Unparen(dest).(type) {
	case *ast.IndexExpr:
		if c.classify(d.X) == spine {
			c.report(dest)
		}
	case *ast.StarExpr:
		if c.classify(d.X) == spine {
			c.report(dest)
		}
	case *ast.SelectorExpr:
		if c.classify(d.X) == spine {
			c.report(dest)
		}
	case *ast.SliceExpr:
		if c.classify(d.X) == spine {
			c.report(dest)
		}
	}
}

func (c *checker) report(dest ast.Expr) {
	c.pass.Reportf(dest.Pos(),
		"store into spine-reachable memory without own: "+
			"the destination may be shared with a sealed epoch")
}
