package viewupdate

import (
	"fmt"
	"slices"

	"rxview/internal/atg"
	"rxview/internal/relational"
)

// combo is one combination of base rows (existing and templates) that the
// symbolic evaluation of a rule query produced: its conditions (the
// variable-involving equalities), the resolved query parameters, and the
// produced child attribute.
type combo struct {
	conds     []symAtom
	params    relational.Tuple // resolved parent attribute; may contain vars
	childAttr relational.Tuple // may contain vars
}

// findSideEffects is step 3 of Algorithm insert: every rule query is
// evaluated over I ∪ X restricted to combinations using at least one
// template (combinations without templates existed before ΔR and produce no
// new rows). The enumeration is a delta join: with a template driving FROM
// position d, the positions before d range over I alone and the positions
// after it over I ∪ X, so each combination is produced exactly once — with
// its first templated position as the driver. Each produced row is
// classified as it is found: already-expected edges add nothing; concrete
// unexpected edges reject ΔV; conditional rows add ¬φ conjuncts or guarded
// match disjunctions.
func (st *insertState) findSideEffects() error {
	j := &joiner{st: st, subst: map[int]relational.Value{}}
	for _, rule := range st.tr.C.QueryRules() {
		for pos, ref := range rule.Query.From {
			for _, tmpl := range st.byTable[ref.Table] {
				if err := j.run(rule, pos, tmpl); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// joiner is the symbolic evaluation of one rule query with one template
// driving: a backtracking search over FROM positions. One joiner runs every
// search of an insertion, so its buffers are reused.
type joiner struct {
	st        *insertState
	rule      *atg.CompiledRule
	q         *relational.SPJ
	driverPos int
	rows      []relational.Tuple
	placed    []bool
	params    relational.Tuple         // this search's parameter variables
	subst     map[int]relational.Value // varID -> concrete (branch-local)
	bound     []int                    // the subst keys to undo, newest last
	conds     []symAtom
	cb        combo // the combination being classified
}

// run enumerates the combinations of rule's query where FROM position
// driverPos is the given template and no earlier position is one, and
// classifies each. Placement is greedy: positions that can be bound through
// an index on a concretely known column go first.
func (j *joiner) run(rule *atg.CompiledRule, driverPos int, driver *template) error {
	q := rule.Query
	n := len(q.From)
	j.rule, j.q, j.driverPos = rule, q, driverPos
	j.rows = slices.Grow(j.rows[:0], n)[:n]
	j.placed = slices.Grow(j.placed[:0], n)[:n]
	clear(j.placed)
	j.params = j.params[:0]
	for range q.NParams {
		j.params = append(j.params, j.st.newParamVar())
	}
	clear(j.subst)
	j.bound, j.conds = j.bound[:0], j.conds[:0]

	// Place the driver first and apply its immediately-available predicates.
	j.rows[driverPos], j.placed[driverPos] = driver.row, true
	for _, p := range q.Where {
		l, lok := j.resolve(p.Left)
		r, rok := j.resolve(p.Right)
		if lok && rok && !j.applyPred(l, r) {
			return nil
		}
	}
	return j.recurse()
}

func (j *joiner) deref(v relational.Value) relational.Value {
	for v.IsVar() {
		s, ok := j.subst[v.VarID()]
		if !ok {
			return v
		}
		v = s
	}
	return v
}

func (j *joiner) resolve(o relational.Operand) (relational.Value, bool) {
	switch {
	case o.IsConst():
		return o.Const, true
	case o.IsParam():
		return j.deref(j.params[o.Param]), true
	default:
		if !j.placed[o.Tab] {
			return relational.Value{}, false
		}
		return j.deref(j.rows[o.Tab][o.Col]), true
	}
}

func (j *joiner) isParam(v relational.Value) bool {
	return v.IsVar() && j.st.vars[v.VarID()].isParam
}

// applyPred evaluates a predicate whose operands are both available;
// returns false to prune. A binding goes on j.bound for undo. Binding a
// PARAMETER variable defines the parent attribute rather than constraining
// the templates, so it updates subst without emitting a condition atom.
func (j *joiner) applyPred(l, r relational.Value) bool {
	l, r = j.deref(l), j.deref(r)
	if j.isParam(r) {
		l, r = r, l
	}
	switch {
	case !l.IsVar() && !r.IsVar():
		return l.Equal(r)
	case j.isParam(l):
		j.bind(l, r) // r may itself be a template variable
		return true
	case l.IsVar() && !r.IsVar():
		j.bind(l, r)
		j.conds = append(j.conds, symAtom{L: l, R: r})
		return true
	case !l.IsVar() && r.IsVar():
		j.bind(r, l)
		j.conds = append(j.conds, symAtom{L: r, R: l})
		return true
	default:
		if l.VarID() != r.VarID() {
			j.conds = append(j.conds, symAtom{L: l, R: r})
		}
		return true
	}
}

func (j *joiner) bind(v, to relational.Value) {
	j.subst[v.VarID()] = to
	j.bound = append(j.bound, v.VarID())
}

func (j *joiner) recurse() error {
	q := j.q
	next := j.pickNext()
	if next < 0 {
		// All placed: classify the combination.
		cb := &j.cb
		cb.conds = append(cb.conds[:0], j.conds...)
		cb.params = cb.params[:0]
		for _, p := range j.params {
			cb.params = append(cb.params, j.deref(p))
		}
		cb.childAttr = cb.childAttr[:0]
		for _, it := range q.Selects {
			v, _ := j.resolve(it.Src)
			cb.childAttr = append(cb.childAttr, v)
		}
		return j.st.classify(j.rule.Parent, j.rule.Child, *cb)
	}

	// Candidate rows: existing base rows (indexed when possible), plus the
	// templates of this table after the driver's position.
	rel := j.st.tr.DB.Rel(q.From[next].Table)
	var candidates []relational.Tuple
	if idxCol, idxVal := j.indexBinding(next); idxCol >= 0 {
		candidates = rel.IndexLookup(idxCol, idxVal)
	} else {
		rel.Scan(func(row relational.Tuple) bool {
			candidates = append(candidates, row)
			return true
		})
	}
	for _, row := range candidates {
		if err := j.place(next, row); err != nil {
			return err
		}
	}
	if next > j.driverPos {
		for _, tm := range j.st.byTable[q.From[next].Table] {
			if err := j.place(next, tm.row); err != nil {
				return err
			}
		}
	}
	return nil
}

// place puts row at FROM position next, applies the predicates that become
// available, searches on if none fails, and takes it all back.
func (j *joiner) place(next int, row relational.Tuple) error {
	j.rows[next], j.placed[next] = row, true
	bound, condLen := len(j.bound), len(j.conds)
	ok := true
	for _, p := range j.q.Where {
		l, lok := j.resolve(p.Left)
		r, rok := j.resolve(p.Right)
		if !lok || !rok {
			continue // becomes available at a later placement
		}
		// Only apply predicates that became fully available at this
		// placement (mention position `next` or are const/param-only and
		// not yet checked): re-checking earlier ones is harmless because
		// they are idempotent under subst.
		if !mentions(p, next) && !constParamOnly(p) {
			continue
		}
		if !j.applyPred(l, r) {
			ok = false
			break
		}
	}
	var err error
	if ok {
		err = j.recurse()
	}
	for _, k := range j.bound[bound:] {
		delete(j.subst, k)
	}
	j.bound, j.conds = j.bound[:bound], j.conds[:condLen]
	j.placed[next] = false
	return err
}

func mentions(p relational.EqPred, pos int) bool {
	return (p.Left.IsCol() && p.Left.Tab == pos) || (p.Right.IsCol() && p.Right.Tab == pos)
}

func constParamOnly(p relational.EqPred) bool {
	return !p.Left.IsCol() && !p.Right.IsCol()
}

// pickNext chooses the next FROM position: prefer one with an index binding
// (a predicate equating one of its columns to a concretely known value).
func (j *joiner) pickNext() int {
	fallback := -1
	for pos := range j.q.From {
		if j.placed[pos] {
			continue
		}
		if fallback < 0 {
			fallback = pos
		}
		if c, _ := j.indexBinding(pos); c >= 0 {
			return pos
		}
	}
	return fallback
}

// indexBinding returns a column of FROM position pos that a predicate equates
// to a concretely known value, and that value, or -1 if there is none.
func (j *joiner) indexBinding(pos int) (int, relational.Value) {
	for _, p := range j.q.Where {
		l, r := p.Left, p.Right
		if r.IsCol() && r.Tab == pos {
			l, r = r, l
		}
		if !(l.IsCol() && l.Tab == pos) {
			continue
		}
		if r.IsCol() && (!j.placed[r.Tab] || r.Tab == pos) {
			continue
		}
		v, ok := j.resolve(r)
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
