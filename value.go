package rxview

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"rxview/internal/relational"
)

// Kind identifies the runtime type of a Value.
type Kind uint8

// Value kinds.
const (
	KindNull Kind = iota
	KindInt
	KindBool
	KindString
)

// String returns the name of the kind.
func (k Kind) String() string { return relational.Kind(k).String() }

// Value is a single relational value: the typed constants that fill tuples,
// column domains and query predicates. The zero Value is NULL.
type Value struct {
	v relational.Value
}

// Str returns a string value.
func Str(s string) Value { return Value{relational.Str(s)} }

// Int returns an integer value.
func Int(n int64) Value { return Value{relational.Int(n)} }

// Bool returns a boolean value.
func Bool(b bool) Value { return Value{relational.Bool(b)} }

// Null returns the NULL value.
func Null() Value { return Value{} }

// Kind reports the value's runtime type.
func (v Value) Kind() Kind { return Kind(v.v.K) }

// Text returns the payload of a string value ("" for other kinds).
func (v Value) Text() string {
	if v.v.K == relational.KindString {
		return v.v.S
	}
	return ""
}

// Num returns the payload of an int or bool value (0 for other kinds).
func (v Value) Num() int64 {
	switch v.v.K {
	case relational.KindInt, relational.KindBool:
		return v.v.I
	}
	return 0
}

// String renders the value.
func (v Value) String() string { return v.v.String() }

// MarshalJSON renders the value in its native JSON form: null, a number, a
// boolean or a string — the same mapping the server's wire format uses, so
// a marshaled Mutation round-trips.
func (v Value) MarshalJSON() ([]byte, error) {
	switch v.v.K {
	case relational.KindInt:
		return json.Marshal(v.v.I)
	case relational.KindBool:
		return json.Marshal(v.v.I != 0)
	case relational.KindString:
		return json.Marshal(v.v.S)
	default:
		return []byte("null"), nil
	}
}

// UnmarshalJSON accepts the same forms MarshalJSON emits. Numbers must be
// exact integers (the value model has no floats) and are parsed as full
// int64 — not through float64, which would corrupt magnitudes ≥ 2⁵³. The
// literal is read in place, with no decoder per value: this is the HTTP
// write path's decoder for every update value.
func (v *Value) UnmarshalJSON(data []byte) error {
	data = bytes.TrimSpace(data)
	switch lit := string(data); {
	case lit == "null":
		*v = Null()
	case lit == "true" || lit == "false":
		*v = Bool(lit == "true")
	case strings.HasPrefix(lit, `"`):
		var s string
		if err := json.Unmarshal(data, &s); err != nil {
			return err
		}
		*v = Str(s)
	case strings.HasPrefix(lit, "-") || lit != "" && '0' <= lit[0] && lit[0] <= '9':
		n, err := strconv.ParseInt(lit, 10, 64)
		if err != nil {
			return fmt.Errorf("rxview: number %s is not an exact int64", lit)
		}
		*v = Int(n)
	default:
		return fmt.Errorf("rxview: unsupported JSON value %.32s", lit)
	}
	return nil
}

// tupleOf converts public values to an internal tuple.
func tupleOf(vals []Value) relational.Tuple {
	t := make(relational.Tuple, len(vals))
	for i, v := range vals {
		t[i] = v.v
	}
	return t
}

// valuesOf converts an internal tuple to public values.
func valuesOf(t relational.Tuple) []Value {
	out := make([]Value, len(t))
	for i, v := range t {
		out[i] = Value{v}
	}
	return out
}
