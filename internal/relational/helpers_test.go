package relational

import "sort"

// Helpers only this package's tests call.

// MustTableSchema is NewTableSchema that panics on error; intended for
// statically known schemas in examples and tests.
func MustTableSchema(name string, cols []Column, keyCols ...string) *TableSchema {
	ts, err := NewTableSchema(name, cols, keyCols...)
	if err != nil {
		panic(err)
	}
	return ts
}

// ColIndex returns the index of the named column, or -1.
func (ts *TableSchema) ColIndex(name string) int {
	if i, ok := ts.byName[name]; ok {
		return i
	}
	return -1
}

// KeyNames returns the names of the primary-key columns.
func (ts *TableSchema) KeyNames() []string {
	out := make([]string, len(ts.Key))
	for i, k := range ts.Key {
		out[i] = ts.Columns[k].Name
	}
	return out
}

// MustSchema is NewSchema that panics on error.
func MustSchema(tables ...*TableSchema) *Schema {
	s, err := NewSchema(tables...)
	if err != nil {
		panic(err)
	}
	return s
}

// MustInsert inserts and panics on error; for statically known test data.
func (r *Relation) MustInsert(vals ...Value) {
	if err := r.Insert(Tuple(vals)); err != nil {
		panic(err)
	}
}

// DeleteKey removes the tuple whose key columns equal key (given in key-column
// order). It reports whether a tuple was removed.
func (r *Relation) DeleteKey(key Tuple) bool {
	if len(key) != len(r.Schema.Key) {
		return false
	}
	var a [KeyBufLen]byte
	return r.deleteEncoded(AppendKey(a[:0], key, nil))
}

// ContainsKeyOf reports whether a tuple with the same key as t exists.
func (r *Relation) ContainsKeyOf(t Tuple) bool {
	var a [KeyBufLen]byte
	_, ok := r.byKey[string(AppendKey(a[:0], t, r.Schema.Key))]
	return ok
}

// Tuples returns a snapshot of all live tuples in deterministic (sorted)
// order. Intended for tests and small relations.
func (r *Relation) Tuples() []Tuple {
	out := make([]Tuple, 0, r.count)
	r.Scan(func(t Tuple) bool {
		out = append(out, t)
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// Equal reports element-wise equality.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if !t[i].Equal(u[i]) {
			return false
		}
	}
	return true
}

// Compare orders tuples lexicographically.
func (t Tuple) Compare(u Tuple) int {
	n := len(t)
	if len(u) < n {
		n = len(u)
	}
	for i := 0; i < n; i++ {
		if c := t[i].Compare(u[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(t) < len(u):
		return -1
	case len(t) > len(u):
		return 1
	}
	return 0
}

// AsBool returns the boolean payload (false for non-bool values).
func (v Value) AsBool() bool { return v.K == KindBool && v.I != 0 }

// DecodeValue decodes one value from the front of b, returning the value and
// the remaining bytes.
func DecodeValue(b []byte) (Value, []byte, error) { return decodeValue(b, nil) }
