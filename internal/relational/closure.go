package relational

import "fmt"

// DerivationSource says where the value of a (FROM-entry, column) pair can be
// recovered from, given a query result tuple and the parameter values used to
// produce it. This is the machinery behind the paper's key-preservation
// condition (§4.1): a view is key preserving when every base relation's key
// columns are derivable — then the "deletable source" Sr(Q, t) of a view
// tuple can be identified via keys.
type DerivationSource struct {
	Kind  DerivationKind
	Index int   // select index for FromSelect, param index for FromParam
	Const Value // for FromConst
}

// DerivationKind enumerates derivation sources.
type DerivationKind uint8

// Derivation kinds.
const (
	FromSelect DerivationKind = iota // value is output column Index
	FromParam                        // value is parameter Index
	FromConst                        // value is the constant Const
)

func (d DerivationSource) String() string {
	switch d.Kind {
	case FromSelect:
		return fmt.Sprintf("out[%d]", d.Index)
	case FromParam:
		return fmt.Sprintf("$%d", d.Index)
	default:
		return d.Const.String()
	}
}

// Resolve computes the concrete value of the derivation given the query
// output row and parameters.
func (d DerivationSource) Resolve(out Tuple, params []Value) Value {
	switch d.Kind {
	case FromSelect:
		return out[d.Index]
	case FromParam:
		return params[d.Index]
	default:
		return d.Const
	}
}

// EqualityClosure computes, for every (FROM index, column) of q, a derivation
// from the query's outputs, parameters and constants, by saturating the WHERE
// equalities. Columns with no derivation are absent from the result.
//
// The closure is the standard congruence: a column is known if it is
// projected, equated (transitively) to a known column, a parameter, or a
// constant.
func EqualityClosure(q *SPJ) map[[2]int]DerivationSource {
	known := make(map[[2]int]DerivationSource)

	// Seed with projected columns...
	for i, it := range q.Selects {
		if it.Src.IsCol() {
			k := [2]int{it.Src.Tab, it.Src.Col}
			if _, ok := known[k]; !ok {
				known[k] = DerivationSource{Kind: FromSelect, Index: i}
			}
		}
	}
	// ...and columns directly equated to params/consts.
	seedDirect := func(col Operand, other Operand) {
		if !col.IsCol() {
			return
		}
		k := [2]int{col.Tab, col.Col}
		if _, ok := known[k]; ok {
			return
		}
		switch {
		case other.IsParam():
			known[k] = DerivationSource{Kind: FromParam, Index: other.Param}
		case other.IsConst():
			known[k] = DerivationSource{Kind: FromConst, Const: other.Const}
		}
	}
	for _, p := range q.Where {
		seedDirect(p.Left, p.Right)
		seedDirect(p.Right, p.Left)
	}

	// Saturate col=col equalities.
	for changed := true; changed; {
		changed = false
		for _, p := range q.Where {
			l, r := p.Left, p.Right
			if !l.IsCol() || !r.IsCol() {
				continue
			}
			lk := [2]int{l.Tab, l.Col}
			rk := [2]int{r.Tab, r.Col}
			if d, ok := known[lk]; ok {
				if _, ok2 := known[rk]; !ok2 {
					known[rk] = d
					changed = true
				}
			}
			if d, ok := known[rk]; ok {
				if _, ok2 := known[lk]; !ok2 {
					known[lk] = d
					changed = true
				}
			}
		}
	}
	return known
}

// KeyPreservation describes the result of checking a query for the paper's
// key-preservation condition.
type KeyPreservation struct {
	// KeySources[i] maps each key column of FROM entry i (in TableSchema.Key
	// order) to its derivation. Present only when entry i is preserved.
	KeySources []([]DerivationSource)
	// Missing lists, per FROM entry, the key column names that are not
	// derivable; empty when the query is key preserving.
	Missing map[int][]string
	// Closure is the query's EqualityClosure, which the check is made from.
	Closure map[[2]int]DerivationSource
}

// Preserved reports whether every FROM entry's key is fully derivable.
func (kp *KeyPreservation) Preserved() bool { return len(kp.Missing) == 0 }

// CheckKeyPreservation verifies the key-preservation condition for q against
// the schema and returns the per-table key derivations.
func CheckKeyPreservation(s *Schema, q *SPJ) (*KeyPreservation, error) {
	if err := q.Validate(s); err != nil {
		return nil, err
	}
	closure := EqualityClosure(q)
	kp := &KeyPreservation{
		KeySources: make([][]DerivationSource, len(q.From)),
		Missing:    make(map[int][]string),
		Closure:    closure,
	}
	for i, ref := range q.From {
		ts := s.Table(ref.Table)
		srcs := make([]DerivationSource, 0, len(ts.Key))
		for _, kc := range ts.Key {
			d, ok := closure[[2]int{i, kc}]
			if !ok {
				kp.Missing[i] = append(kp.Missing[i], ts.Columns[kc].Name)
				continue
			}
			srcs = append(srcs, d)
		}
		if len(kp.Missing[i]) == 0 {
			kp.KeySources[i] = srcs
		}
	}
	return kp, nil
}
