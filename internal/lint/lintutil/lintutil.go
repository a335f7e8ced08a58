// Package lintutil holds the small helpers the xviewlint analyzers share:
// directive parsing (the // xviewlint:<key> annotation grammar), type
// identity tests, and fmt verb extraction for wrap checking.
package lintutil

import (
	"go/ast"
	"go/types"
	"strings"
)

const directivePrefix = "xviewlint:"

// HasDirective reports whether any of the comment groups carries the
// annotation `// xviewlint:<key>` (e.g. "writer-loop", "hot-path"),
// optionally followed by free text.
func HasDirective(key string, groups ...*ast.CommentGroup) bool {
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if rest, ok := strings.CutPrefix(text, directivePrefix); ok {
				if k, _, _ := strings.Cut(rest, " "); k == key {
					return true
				}
			}
		}
	}
	return false
}

// Deref unwraps one level of pointer.
func Deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// NamedType returns the named (or alias-resolved) type of t after
// dereferencing one pointer level, or nil.
func NamedType(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// IsNamed reports whether t (possibly behind one pointer) is the named
// type path.name.
func IsNamed(t types.Type, path, name string) bool {
	n := NamedType(t)
	if n == nil || n.Obj() == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == path && n.Obj().Name() == name
}

// IsErrorType reports whether t implements the error interface.
func IsErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Implements(t, errorIface) ||
		types.Implements(types.NewPointer(t), errorIface)
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// IsErrorInterface reports whether t is exactly the error interface (the
// static type of most err values).
func IsErrorInterface(t types.Type) bool {
	if t == nil {
		return false
	}
	it, ok := t.Underlying().(*types.Interface)
	return ok && types.Identical(it, errorIface)
}

// CalleeObj resolves the called function or method object of a call, or
// nil for calls through function values and conversions.
func CalleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

// IsPkgFunc reports whether the call invokes the package-level function
// path.name.
func IsPkgFunc(info *types.Info, call *ast.CallExpr, path, name string) bool {
	obj := CalleeObj(info, call)
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	if _, isFunc := obj.(*types.Func); !isFunc {
		return false
	}
	return obj.Pkg().Path() == path && obj.Name() == name
}

// Verb is one fmt verb occurrence mapped to its argument index (after the
// format string).
type Verb struct {
	Letter byte
	ArgPos int // 0-based index into the variadic args
}

// FormatVerbs extracts the verbs of a fmt format string in argument
// order. It returns ok=false for strings using explicit argument indexes
// or star widths, which the callers treat as "don't know".
func FormatVerbs(format string) (verbs []Verb, ok bool) {
	arg := 0
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		// flags, width, precision
		for i < len(format) && strings.IndexByte("+-# 0.123456789", format[i]) >= 0 {
			i++
		}
		if i >= len(format) {
			return nil, false
		}
		switch format[i] {
		case '%':
			continue
		case '*', '[':
			return nil, false
		}
		verbs = append(verbs, Verb{Letter: format[i], ArgPos: arg})
		arg++
	}
	return verbs, true
}
