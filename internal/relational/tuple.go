package relational

import "strings"

// Tuple is a row of values. Tuples are positional; the schema gives names.
type Tuple []Value

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// HasVar reports whether any component is a symbolic variable.
func (t Tuple) HasVar() bool {
	for _, v := range t {
		if v.IsVar() {
			return true
		}
	}
	return false
}

// AppendKey appends the injective encoding of t's projection onto the column
// indices cols — of the whole tuple when cols is nil — to dst. Every map in the
// system that is keyed by tuple values is keyed by these bytes: a lookup
// builds them in a buffer on its stack and indexes with m[string(buf)], which
// allocates nothing, and an insert pays for the one string the map keeps.
func AppendKey(dst []byte, t Tuple, cols []int) []byte {
	if cols == nil {
		for _, v := range t {
			dst = v.appendEncoded(dst)
		}
		return dst
	}
	for _, c := range cols {
		dst = t[c].appendEncoded(dst)
	}
	return dst
}

// KeyBufLen sizes the stack buffers keys are built in; a longer key spills to
// the heap and is still correct.
const KeyBufLen = 128

// Encode returns AppendKey of the whole tuple as a string, for callers that
// keep the key. It is the Skolem-function input representation for gen_id
// (§2.3).
func (t Tuple) Encode() string { return t.EncodeCols(nil) }

// EncodeCols returns AppendKey of t's projection onto cols as a string.
func (t Tuple) EncodeCols(cols []int) string {
	var a [KeyBufLen]byte
	return string(AppendKey(a[:0], t, cols))
}

// String renders the tuple as (v1, v2, ...).
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range t {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	return b.String()
}
