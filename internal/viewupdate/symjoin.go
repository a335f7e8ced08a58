package viewupdate

import (
	"fmt"

	"rxview/internal/relational"
)

// combo is one combination of base rows (existing and templates) that the
// symbolic evaluation of a rule query produced: its conditions (the
// variable-involving equalities), the resolved query parameters, and the
// produced child attribute.
type combo struct {
	ruleKey   string
	rowIDs    []string // per-FROM-position identity, for dedup
	conds     []symAtom
	params    relational.Tuple // resolved parent attribute; may contain vars
	childAttr relational.Tuple // may contain vars
}

func (c *combo) signature() string {
	out := c.ruleKey
	for _, id := range c.rowIDs {
		out += "|" + id
	}
	return out
}

// findSideEffects is step 3 of Algorithm insert: every rule query is
// evaluated over I ∪ X restricted to combinations using at least one
// template (combinations without templates existed before ΔR and produce no
// new rows). Each produced row is classified: already-expected edges add
// nothing; concrete unexpected edges reject ΔV; conditional rows add
// ¬φ conjuncts or guarded match disjunctions.
func (st *insertState) findSideEffects() error {
	seen := map[string]bool{}
	for _, rule := range st.tr.C.QueryRules() {
		q := rule.Query
		for pos, ref := range q.From {
			for _, tmpl := range st.byTable[ref.Table] {
				combos, err := st.symJoin(rule.Parent+"→"+rule.Child, q, pos, tmpl)
				if err != nil {
					return err
				}
				for _, cb := range combos {
					if seen[cb.signature()] {
						continue
					}
					seen[cb.signature()] = true
					if err := st.classify(rule.Parent, rule.Child, cb); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// symJoin enumerates the combinations of q's FROM entries where position
// driverPos is the given template. Placement is greedy: positions that can
// be bound through an index on a concretely known column go first.
func (st *insertState) symJoin(ruleKey string, q *relational.SPJ, driverPos int, driver *template) ([]combo, error) {
	n := len(q.From)
	rows := make([]relational.Tuple, n)
	rowIDs := make([]string, n)
	placed := make([]bool, n)

	// Parameter variables for this enumeration.
	params := make(relational.Tuple, q.NParams)
	for i := range params {
		params[i] = st.newParamVar(fmt.Sprintf("param%d", i))
	}
	subst := map[int]relational.Value{} // varID -> concrete (branch-local)

	deref := func(v relational.Value) relational.Value {
		for v.IsVar() {
			s, ok := subst[v.VarID()]
			if !ok {
				return v
			}
			v = s
		}
		return v
	}
	resolve := func(o relational.Operand) (relational.Value, bool) {
		switch {
		case o.IsConst():
			return o.Const, true
		case o.IsParam():
			return deref(params[o.Param]), true
		default:
			if !placed[o.Tab] {
				return relational.Value{}, false
			}
			return deref(rows[o.Tab][o.Col]), true
		}
	}

	var out []combo
	var conds []symAtom
	type undo struct {
		substKeys []int
		condLen   int
	}

	isParam := func(v relational.Value) bool {
		return v.IsVar() && st.vars[v.VarID()].isParam
	}
	// applyPred evaluates a predicate whose operands are both available;
	// returns ok=false to prune, and records undo info. Binding a PARAMETER
	// variable defines the parent attribute rather than constraining the
	// templates, so it updates subst without emitting a condition atom.
	applyPred := func(l, r relational.Value, u *undo) bool {
		l, r = deref(l), deref(r)
		if isParam(r) {
			l, r = r, l
		}
		switch {
		case !l.IsVar() && !r.IsVar():
			return l.Equal(r)
		case isParam(l):
			subst[l.VarID()] = r // r may itself be a template variable
			u.substKeys = append(u.substKeys, l.VarID())
			return true
		case l.IsVar() && !r.IsVar():
			subst[l.VarID()] = r
			u.substKeys = append(u.substKeys, l.VarID())
			conds = append(conds, symAtom{L: l, R: r})
			return true
		case !l.IsVar() && r.IsVar():
			subst[r.VarID()] = l
			u.substKeys = append(u.substKeys, r.VarID())
			conds = append(conds, symAtom{L: r, R: l})
			return true
		default:
			if l.VarID() != r.VarID() {
				conds = append(conds, symAtom{L: l, R: r})
			}
			return true
		}
	}

	var recurse func() error
	recurse = func() error {
		next := st.pickNext(q, placed, resolve)
		if next < 0 {
			// All placed: record the combination.
			cb := combo{
				ruleKey: ruleKey,
				rowIDs:  append([]string(nil), rowIDs...),
				conds:   append([]symAtom(nil), conds...),
			}
			for i := range params {
				cb.params = append(cb.params, deref(params[i]))
			}
			for _, it := range q.Selects {
				v, _ := resolve(it.Src)
				cb.childAttr = append(cb.childAttr, v)
			}
			out = append(out, cb)
			return nil
		}

		// Candidate rows: existing base rows (indexed when possible) plus
		// templates of this table.
		var candidates []relational.Tuple
		var ids []string
		rel := st.tr.DB.Rel(q.From[next].Table)
		idxCol, idxVal := st.indexBinding(q, next, placed, resolve)
		if idxCol >= 0 {
			for _, row := range rel.IndexLookup(idxCol, idxVal) {
				candidates = append(candidates, row)
				ids = append(ids, "I:"+row.EncodeCols(rel.Schema.Key))
			}
		} else {
			rel.Scan(func(row relational.Tuple) bool {
				candidates = append(candidates, row)
				ids = append(ids, "I:"+row.EncodeCols(rel.Schema.Key))
				return true
			})
		}
		for _, tm := range st.byTable[q.From[next].Table] {
			candidates = append(candidates, tm.row)
			ids = append(ids, "X:"+tm.row.EncodeCols(rel.Schema.Key))
		}

		for ci, row := range candidates {
			rows[next], rowIDs[next], placed[next] = row, ids[ci], true
			u := undo{condLen: len(conds)}
			ok := true
			for _, p := range q.Where {
				l, lok := resolve(p.Left)
				r, rok := resolve(p.Right)
				if !lok || !rok {
					continue // becomes available at a later placement
				}
				// Only apply predicates that became fully available at
				// this placement (mention position `next` or are
				// const/param-only and not yet checked): re-checking
				// earlier ones is harmless because they are idempotent
				// under subst.
				if !mentions(p, next) && !constParamOnly(p) {
					continue
				}
				if !applyPred(l, r, &u) {
					ok = false
					break
				}
			}
			if ok {
				if err := recurse(); err != nil {
					return err
				}
			}
			for _, k := range u.substKeys {
				delete(subst, k)
			}
			conds = conds[:u.condLen]
			placed[next] = false
		}
		return nil
	}

	// Place the driver first and apply its immediately-available predicates.
	rows[driverPos] = driver.row
	rowIDs[driverPos] = "X:" + driver.row.EncodeCols(st.tr.DB.Rel(driver.table).Schema.Key)
	placed[driverPos] = true
	u := undo{}
	ok := true
	for _, p := range q.Where {
		l, lok := resolve(p.Left)
		r, rok := resolve(p.Right)
		if lok && rok {
			if !applyPred(l, r, &u) {
				ok = false
				break
			}
		}
	}
	if ok {
		if err := recurse(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func mentions(p relational.EqPred, pos int) bool {
	return (p.Left.IsCol() && p.Left.Tab == pos) || (p.Right.IsCol() && p.Right.Tab == pos)
}

func constParamOnly(p relational.EqPred) bool {
	return !p.Left.IsCol() && !p.Right.IsCol()
}

// pickNext chooses the next FROM position: prefer one with an index binding
// (a predicate equating one of its columns to a concretely known value).
func (st *insertState) pickNext(q *relational.SPJ, placed []bool, resolve func(relational.Operand) (relational.Value, bool)) int {
	fallback := -1
	for pos := range q.From {
		if placed[pos] {
			continue
		}
		if fallback < 0 {
			fallback = pos
		}
		if c, _ := st.indexBinding(q, pos, placed, resolve); c >= 0 {
			return pos
		}
	}
	return fallback
}

// indexBinding returns a column of FROM position pos that a predicate equates
// to a concretely known value, and that value, or -1 if there is none.
func (st *insertState) indexBinding(q *relational.SPJ, pos int, placed []bool, resolve func(relational.Operand) (relational.Value, bool)) (int, relational.Value) {
	for _, p := range q.Where {
		l, r := p.Left, p.Right
		if r.IsCol() && r.Tab == pos {
			l, r = r, l
		}
		if !(l.IsCol() && l.Tab == pos) {
			continue
		}
		if r.IsCol() && (!placed[r.Tab] || r.Tab == pos) {
			continue
		}
		v, ok := resolve(r)
		if ok && !v.IsVar() {
			return l.Col, v
		}
	}
	return -1, relational.Value{}
}

// classify decides what a produced combination means (step 3's case
// analysis).
func (st *insertState) classify(parentType, childType string, cb combo) error {
	tr := st.tr
	// Simplify conditions: drop concrete tautologies, prune on concrete
	// contradictions.
	conds := cb.conds[:0:0]
	for _, a := range cb.conds {
		if !a.L.IsVar() && !a.R.IsVar() {
			if !a.L.Equal(a.R) {
				return nil // condition can never hold: no row produced
			}
			continue
		}
		conds = append(conds, a)
	}

	// Resolve the parent node.
	if cb.params.HasVar() {
		return &RejectedError{Reason: fmt.Sprintf(
			"cannot determine the parent %s attribute of a potential side-effect row (parameters %s unresolved)",
			parentType, cb.params)}
	}
	parent, ok := tr.D.Lookup(parentType, cb.params)
	if !ok {
		return nil // no such parent element in the view: no edge arises
	}

	if !cb.childAttr.HasVar() {
		if child, ok := tr.D.Lookup(childType, cb.childAttr); ok && tr.D.HasEdge(parent, child) {
			return nil // expected: the edge is in V ∪ ΔV
		}
		if st.newNodes[parent] {
			// Under a node created by this very update the row is not a
			// side effect: it is content of the inserted subtree in the
			// post-ΔR database. Materialized after solving.
			st.induced = append(st.induced, inducedRow{
				parent: parent, childType: childType,
				attr: cb.childAttr.Clone(), conds: conds,
			})
			return nil
		}
		if len(conds) == 0 {
			return &RejectedError{Reason: fmt.Sprintf(
				"insertion would create an unrequested %s edge under %s%s (hard side effect)",
				childType, parentType, cb.params)}
		}
		st.forbidden = append(st.forbidden, conds)
		return nil
	}

	if st.newNodes[parent] {
		st.induced = append(st.induced, inducedRow{
			parent: parent, childType: childType,
			attr: cb.childAttr.Clone(), conds: conds,
		})
		return nil
	}

	// The produced attribute still contains variables: the row is safe iff
	// its conditions fail OR the attribute coincides with an expected child.
	var matches [][]symAtom
	for _, c := range tr.D.Children(parent) {
		if tr.D.Type(c) != childType {
			continue
		}
		want := tr.D.Attr(c)
		var m []symAtom
		feasible := true
		for i, v := range cb.childAttr {
			if v.IsVar() {
				m = append(m, symAtom{L: v, R: want[i]})
			} else if !v.Equal(want[i]) {
				feasible = false
				break
			}
		}
		if feasible {
			matches = append(matches, m)
		}
	}
	if len(matches) == 0 {
		if len(conds) == 0 {
			return &RejectedError{Reason: fmt.Sprintf(
				"insertion unconditionally creates a %s edge under %s%s matching no requested edge",
				childType, parentType, cb.params)}
		}
		st.forbidden = append(st.forbidden, conds)
		return nil
	}
	st.guarded = append(st.guarded, guardedRow{conds: conds, matches: matches})
	return nil
}
