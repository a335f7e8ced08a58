// Package relational implements the relational substrate the paper assumes:
// typed schemas with primary keys, in-memory instances with hash indexes, and
// an evaluator for select-project-join (SPJ) queries with parameter binding.
//
// The XML publishing mapping (ATG) of the paper is defined in terms of SPJ
// queries over this engine, and the view-update translators of Section 4
// operate on its relations.
package relational

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind identifies the runtime type of a Value.
type Kind uint8

// Value kinds. KindVar is used only during symbolic evaluation in the
// view-insertion translator (Appendix A of the paper): a tuple template may
// carry variables whose values the SAT phase chooses.
const (
	KindNull Kind = iota
	KindInt
	KindBool
	KindString
	KindVar
)

// String returns the name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindBool:
		return "bool"
	case KindString:
		return "string"
	case KindVar:
		return "var"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a compact tagged union holding a single relational value.
// The zero Value is NULL.
type Value struct {
	K Kind
	I int64  // payload for KindInt, KindBool (0/1) and KindVar (variable id)
	S string // payload for KindString
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(v int64) Value { return Value{K: KindInt, I: v} }

// Str returns a string value.
func Str(s string) Value { return Value{K: KindString, S: s} }

// Bool returns a boolean value.
func Bool(b bool) Value {
	var i int64
	if b {
		i = 1
	}
	return Value{K: KindBool, I: i}
}

// Var returns a symbolic variable value with the given id.
func Var(id int) Value { return Value{K: KindVar, I: int64(id)} }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.K == KindNull }

// IsVar reports whether v is a symbolic variable.
func (v Value) IsVar() bool { return v.K == KindVar }

// VarID returns the variable id of a KindVar value.
func (v Value) VarID() int { return int(v.I) }

// Equal reports whether two values are identical (same kind and payload).
// Comparing a variable to anything yields false; symbolic comparison is the
// job of the viewupdate package.
func (v Value) Equal(w Value) bool {
	if v.K != w.K {
		return false
	}
	switch v.K {
	case KindNull:
		return true
	case KindString:
		return v.S == w.S
	default:
		return v.I == w.I
	}
}

// Compare returns -1, 0 or +1 ordering values; kinds order before payloads so
// the ordering is total.
func (v Value) Compare(w Value) int {
	if v.K != w.K {
		if v.K < w.K {
			return -1
		}
		return 1
	}
	switch v.K {
	case KindNull:
		return 0
	case KindString:
		return strings.Compare(v.S, w.S)
	default:
		switch {
		case v.I < w.I:
			return -1
		case v.I > w.I:
			return 1
		}
		return 0
	}
}

// String renders the value for messages and XML text content.
func (v Value) String() string {
	switch v.K {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	case KindString:
		return v.S
	case KindVar:
		return fmt.Sprintf("?z%d", v.I)
	default:
		return "?"
	}
}

// Renderings is the inverse of String: it appends to dst every Value whose
// String() is s and returns the extended slice. That is Str(s), plus at most
// one of Int(i) where s is the canonical decimal of i ("007" and "-0" are
// none), Bool where s is "true" or "false", NULL where s is "NULL", and the
// variable n where s is "?z" and the canonical decimal of n.
func Renderings(s string, dst []Value) []Value {
	dst = append(dst, Str(s))
	switch s {
	case "true":
		return append(dst, Bool(true))
	case "false":
		return append(dst, Bool(false))
	case "NULL":
		return append(dst, Null())
	}
	rest, isVar := strings.CutPrefix(s, "?z")
	if n, ok := canonicalInt(rest); ok {
		if isVar {
			return append(dst, Value{K: KindVar, I: n})
		}
		return append(dst, Int(n))
	}
	return dst
}

// canonicalInt parses s as the decimal FormatInt renders, and nothing else.
func canonicalInt(s string) (int64, bool) {
	i, err := strconv.ParseInt(s, 10, 64)
	return i, err == nil && strconv.FormatInt(i, 10) == s
}

// ParseValue parses a textual value into the given kind. It is the inverse of
// String for the concrete kinds and is used by the CLI and text filters.
func ParseValue(k Kind, s string) (Value, error) {
	switch k {
	case KindInt:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("relational: parse int %q: %w", s, err)
		}
		return Int(i), nil
	case KindBool:
		b, err := strconv.ParseBool(s)
		if err != nil {
			return Value{}, fmt.Errorf("relational: parse bool %q: %w", s, err)
		}
		return Bool(b), nil
	case KindString:
		return Str(s), nil
	default:
		return Value{}, fmt.Errorf("relational: cannot parse value of kind %v", k)
	}
}

// appendEncoded appends a self-delimiting binary encoding of v to dst. It is
// injective per kind, which is all key encoding needs.
func (v Value) appendEncoded(dst []byte) []byte {
	dst = append(dst, byte(v.K))
	switch v.K {
	case KindString:
		dst = append(dst, byte(len(v.S)>>24), byte(len(v.S)>>16), byte(len(v.S)>>8), byte(len(v.S)))
		dst = append(dst, v.S...)
	case KindNull:
	default:
		u := uint64(v.I)
		dst = append(dst,
			byte(u>>56), byte(u>>48), byte(u>>40), byte(u>>32),
			byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
	}
	return dst
}
