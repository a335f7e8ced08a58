package viewupdate

import (
	"fmt"

	"rxview/internal/atg"
	"rxview/internal/dag"
	"rxview/internal/relational"
)

// varInfo describes one symbolic variable of the insertion analysis: either
// an undetermined column of a tuple template (Appendix A's z variables) or a
// rule-query parameter during side-effect enumeration. A variable is named
// by its index.
type varInfo struct {
	typ     relational.Kind
	domain  []relational.Value // finite domain; nil = infinite
	isParam bool
}

// symAtom is an equality between two terms, each a concrete Value or a
// variable (KindVar). Conjunctions of atoms are the conditions φt of §4.3.
type symAtom struct {
	L, R relational.Value
}

func (a symAtom) String() string { return a.L.String() + "=" + a.R.String() }

// template is a base tuple to be inserted, possibly containing variables.
type template struct {
	table string
	row   relational.Tuple
}

// guardedRow encodes "if this combination's conditions hold, the produced
// edge must coincide with one of the expected edges": ¬φ ∨ ⋁ match_k.
type guardedRow struct {
	conds   []symAtom
	matches [][]symAtom // each match is a conjunction var=value
}

// inducedRow is a row produced under a NEW parent node (one created by this
// update's ST(A,t) publication). It is not a side effect: it is part of the
// final content of the inserted subtree once ΔR is applied — the subtree of
// the paper's semantics is defined against the post-update database. The
// caller materializes it after the SAT assignment fixes the variables.
type inducedRow struct {
	parent    dag.NodeID
	childType string
	attr      relational.Tuple // may contain vars
	conds     []symAtom
}

// InducedEdge is a concrete induced child to be published under a new node
// after ΔR is applied.
type InducedEdge struct {
	Parent    dag.NodeID
	ChildType string
	Attr      relational.Tuple
}

// insertState is the working state of Algorithm insert for one ΔV.
type insertState struct {
	tr        *Translator
	vars      []varInfo
	templates map[string]*template // table \x00 keyEnc -> template
	byTable   map[string][]*template
	newNodes  map[dag.NodeID]bool

	required  [][]symAtom
	forbidden [][]symAtom
	guarded   []guardedRow
	induced   []inducedRow
}

func (st *insertState) newVar(col relational.Column) relational.Value {
	dom, _ := col.FiniteDomain()
	st.vars = append(st.vars, varInfo{typ: col.Type, domain: dom})
	return relational.Var(len(st.vars) - 1)
}

func (st *insertState) newParamVar() relational.Value {
	st.vars = append(st.vars, varInfo{typ: relational.KindNull, isParam: true})
	return relational.Var(len(st.vars) - 1)
}

// TranslateInsert is Algorithm insert (§4.3): given the DAG delta of an
// insertion (the journal's ops since the update's mark, already applied
// inside a transaction) — its edge additions are ΔV, its node additions the
// nodes ST(A, t) published — it computes base-table insertions ΔR such that
// ΔV(V(I)) = V(ΔR(I)), or rejects. The steps follow the paper:
//
//  1. derive tuple templates (with variables for undetermined columns) that
//     must exist for every ΔV edge to be produced by its rule query;
//  2. assert the production conditions of every ΔV edge (φt conjuncts);
//  3. symbolically evaluate every rule query over I ∪ X to find potential
//     type-1/type-2 side-effect rows; concrete unexpected rows reject ΔV,
//     conditional ones contribute ¬φt conjuncts (or guarded disjunctions
//     when the produced attribute still contains variables);
//  4. encode to SAT, solve with DPLL, and instantiate the templates from
//     the model; an unsatisfiable encoding rejects ΔV. Unconstrained
//     infinite-domain variables get fresh values outside the active domain.
func (tr *Translator) TranslateInsert(delta []dag.DeltaOp) ([]relational.Mutation, []InducedEdge, error) {
	st := &insertState{
		tr:        tr,
		templates: make(map[string]*template),
		byTable:   make(map[string][]*template),
		newNodes:  make(map[dag.NodeID]bool),
	}
	// Step 1: templates for missing sources. An edge's source tuples are
	// resolved once, for this step and the next. The new nodes are read
	// only from step 3 on.
	type pending struct {
		edge dag.Edge
		rule *atg.CompiledRule
		rows []relational.Tuple // per source: the base tuple or its template's row
	}
	var work []pending
	for _, op := range delta {
		if op.Kind == dag.DeltaNodeAdd {
			st.newNodes[op.Node] = true
		}
		if op.Kind != dag.DeltaEdgeAdd {
			continue
		}
		e := op.Edge
		r := tr.C.Rule(tr.D.Type(e.Parent), tr.D.Type(e.Child))
		if r == nil {
			return nil, nil, fmt.Errorf("viewupdate: no rule for edge %s (%s→%s)",
				e, tr.D.Type(e.Parent), tr.D.Type(e.Child))
		}
		if r.Prov == nil {
			continue // projection-rule edge: exists with its parent
		}
		rows, err := st.buildTemplates(e, r)
		if err != nil {
			return nil, nil, err
		}
		work = append(work, pending{edge: e, rule: r, rows: rows})
	}
	// Step 2: required production conditions.
	for _, w := range work {
		if err := st.requireProduction(w.edge, w.rule, w.rows); err != nil {
			return nil, nil, err
		}
	}
	// Step 3: side-effect enumeration.
	if err := st.findSideEffects(); err != nil {
		return nil, nil, err
	}
	// Step 4: solve and instantiate.
	return st.solve()
}

// buildTemplates creates/merges templates for every missing source tuple of
// edge e, and returns the edge's combination: per source tuple, the existing
// base tuple or the template's row (a row later edges may still fill in).
func (st *insertState) buildTemplates(e dag.Edge, r *atg.CompiledRule) ([]relational.Tuple, error) {
	tr := st.tr
	parentAttr, childAttr := tr.D.Attr(e.Parent), tr.D.Attr(e.Child)
	rows := make([]relational.Tuple, len(r.Prov.Tables))
	var buf [relational.KeyBufLen]byte
	for pos, table := range r.Prov.Tables {
		rel := tr.DB.Rel(table)
		if rel == nil {
			return nil, fmt.Errorf("viewupdate: no base table %s", table)
		}
		// A source is templated only when the database lacks it, and the
		// database does not change while ΔR is computed: a templated
		// source needs no lookup.
		enc := r.AppendSourceKey(buf[:0], pos, parentAttr, childAttr)
		ts := rel.Schema
		tmpl := st.templates[string(enc)]
		if tmpl == nil {
			key := r.SourceKeyAt(pos, parentAttr, childAttr)
			if row, exists := rel.LookupKey(key); exists {
				rows[pos] = row
				continue
			}
			tmpl = &template{table: table, row: make(relational.Tuple, len(ts.Columns))}
			for ki, c := range ts.Key {
				tmpl.row[c] = key[ki]
			}
			st.templates[string(enc)] = tmpl
			st.byTable[table] = append(st.byTable[table], tmpl)
		}
		rows[pos] = tmpl.row
		// Fill the other determined columns: those the equality closure
		// derives from the edge's attributes.
		for c, d := range r.Prov.Closure[pos] {
			if keyIndex(ts, c) >= 0 {
				continue // set with the template, from its key
			}
			var det relational.Value
			have := d != nil
			if have {
				det = d.Resolve(childAttr, []relational.Value(parentAttr))
			}
			cur := tmpl.row[c]
			switch {
			case have && cur.IsNull():
				tmpl.row[c] = det
			case have && !cur.IsVar() && !cur.Equal(det):
				return nil, &RejectedError{Reason: fmt.Sprintf(
					"conflicting requirements on %s.%s: %s vs %s",
					table, ts.Columns[c].Name, cur, det)}
			case have && cur.IsVar():
				tmpl.row[c] = det // a later edge determined it
			case !have && cur.IsNull():
				tmpl.row[c] = st.newVar(ts.Columns[c])
			}
		}
	}
	return rows, nil
}

func keyIndex(ts *relational.TableSchema, col int) int {
	for i, k := range ts.Key {
		if k == col {
			return i
		}
	}
	return -1
}

// requireProduction asserts the WHERE conditions of the edge's unique
// derivation (key preservation) over its combination rows (buildTemplates):
// concrete violations reject; variable-involving equalities become required
// atoms.
func (st *insertState) requireProduction(e dag.Edge, r *atg.CompiledRule, rows []relational.Tuple) error {
	tr := st.tr
	parentAttr, childAttr := tr.D.Attr(e.Parent), tr.D.Attr(e.Child)
	resolve := func(o relational.Operand) relational.Value {
		switch {
		case o.IsCol():
			return rows[o.Tab][o.Col]
		case o.IsConst():
			return o.Const
		default:
			return parentAttr[o.Param]
		}
	}
	var atoms []symAtom
	for _, p := range r.Query.Where {
		l, rv := resolve(p.Left), resolve(p.Right)
		if !l.IsVar() && !rv.IsVar() {
			if !l.Equal(rv) {
				return &RejectedError{Reason: fmt.Sprintf(
					"edge %s cannot be produced: condition %s=%s fails on existing data",
					e, l, rv)}
			}
			continue
		}
		atoms = append(atoms, symAtom{L: l, R: rv})
	}
	// The query outputs must equal the child attribute.
	for i, it := range r.Query.Selects {
		v := resolve(it.Src)
		want := childAttr[i]
		if !v.IsVar() {
			if !v.Equal(want) {
				return &RejectedError{Reason: fmt.Sprintf(
					"edge %s cannot be produced: output %s is %s, want %s",
					e, it.As, v, want)}
			}
			continue
		}
		atoms = append(atoms, symAtom{L: v, R: want})
	}
	if len(atoms) > 0 {
		st.required = append(st.required, atoms)
	}
	return nil
}
