package viewupdate

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"rxview/internal/relational"
	"rxview/internal/sat"
)

// encoder turns the collected constraints into a propositional formula
// (§4.3's φ): every variable gets selector literals over its candidate
// values — the finite domain for bool/enum columns, or the constants it is
// compared against plus one "fresh" slot for infinite domains (case (b) of
// the paper: an unconstrained infinite-domain variable can always take a
// value outside the active domain, falsifying every comparison).
type encoder struct {
	st  *insertState
	cnf *sat.CNF

	domains [][]relational.Value // per variable; index len(domains[v]) = fresh
	sel     [][]sat.Lit          // selector literal per (var, domain index); last = fresh for infinite
	hasFr   []bool

	litTrue  sat.Lit
	litFalse sat.Lit
	eqCache  map[[2]int]sat.Lit
}

func newEncoder(st *insertState) *encoder {
	e := &encoder{st: st, cnf: sat.NewCNF(), eqCache: map[[2]int]sat.Lit{}}
	t := e.cnf.NewVar()
	e.litTrue = sat.Pos(t)
	e.litFalse = sat.Neg(t)
	e.cnf.AddClause(e.litTrue)
	e.buildDomains()
	return e
}

// buildDomains assigns candidate values per variable. Infinite-domain
// variables get every constant any same-kind variable is compared against
// (values can flow through var=var chains) plus a fresh slot.
func (e *encoder) buildDomains() {
	st := e.st
	nv := len(st.vars)
	constsByKind := map[relational.Kind][]relational.Value{}
	addConst := func(v relational.Value) {
		if v.IsVar() {
			return
		}
		for _, c := range constsByKind[v.K] {
			if c.Equal(v) {
				return
			}
		}
		constsByKind[v.K] = append(constsByKind[v.K], v)
	}
	forEachAtom := func(fn func(symAtom)) {
		for _, conj := range st.required {
			for _, a := range conj {
				fn(a)
			}
		}
		for _, conj := range st.forbidden {
			for _, a := range conj {
				fn(a)
			}
		}
		for _, g := range st.guarded {
			for _, a := range g.conds {
				fn(a)
			}
			for _, m := range g.matches {
				for _, a := range m {
					fn(a)
				}
			}
		}
	}
	forEachAtom(func(a symAtom) {
		addConst(a.L)
		addConst(a.R)
	})
	for k := range constsByKind {
		sort.Slice(constsByKind[k], func(i, j int) bool {
			return constsByKind[k][i].Compare(constsByKind[k][j]) < 0
		})
	}

	e.domains = make([][]relational.Value, nv)
	e.sel = make([][]sat.Lit, nv)
	e.hasFr = make([]bool, nv)
	for v := 0; v < nv; v++ {
		vi := st.vars[v]
		if vi.isParam {
			// A parameter variable is resolved inside its enumeration or
			// rejected by classify: no atom or template mentions it.
			continue
		}
		if vi.domain != nil {
			e.domains[v] = vi.domain
		} else {
			// Infinite domain. Kind may be unknown for unconstrained
			// variables: give them just the fresh slot.
			if vi.typ != relational.KindNull {
				e.domains[v] = constsByKind[vi.typ]
			}
			e.hasFr[v] = true
		}
		lits := make([]sat.Lit, 0, len(e.domains[v])+1)
		for range e.domains[v] {
			lits = append(lits, sat.Pos(e.cnf.NewVar()))
		}
		if e.hasFr[v] {
			lits = append(lits, sat.Pos(e.cnf.NewVar()))
		}
		e.sel[v] = lits
		if len(lits) > 0 {
			e.cnf.AddExactlyOne(lits...)
		}
	}
}

func (e *encoder) domainIndex(v int, val relational.Value) int {
	for i, c := range e.domains[v] {
		if c.Equal(val) {
			return i
		}
	}
	return -1
}

// atomLit returns a literal equivalent to the atom (possibly via aux
// variables).
func (e *encoder) atomLit(a symAtom) sat.Lit {
	l, r := a.L, a.R
	if !l.IsVar() && r.IsVar() {
		l, r = r, l
	}
	switch {
	case !l.IsVar(): // const = const
		if l.Equal(r) {
			return e.litTrue
		}
		return e.litFalse
	case !r.IsVar(): // var = const
		v := l.VarID()
		i := e.domainIndex(v, r)
		if i < 0 {
			return e.litFalse // the constant is outside the domain
		}
		return e.sel[v][i]
	default: // var = var
		x, y := l.VarID(), r.VarID()
		if x == y {
			return e.litTrue
		}
		if x > y {
			x, y = y, x
		}
		if lit, ok := e.eqCache[[2]int{x, y}]; ok {
			return lit
		}
		eq := sat.Pos(e.cnf.NewVar())
		e.eqCache[[2]int{x, y}] = eq
		// eq ↔ ⋁_{shared c} (x=c ∧ y=c); fresh slots never coincide.
		for i, c := range e.domains[x] {
			j := e.domainIndex(y, c)
			if j >= 0 {
				// x=c ∧ y=c → eq
				e.cnf.AddClause(e.sel[x][i].Not(), e.sel[y][j].Not(), eq)
				// eq ∧ x=c → y=c, and symmetrically
				e.cnf.AddClause(eq.Not(), e.sel[x][i].Not(), e.sel[y][j])
				e.cnf.AddClause(eq.Not(), e.sel[y][j].Not(), e.sel[x][i])
			} else {
				// x=c with c outside dom(y): eq → ¬(x=c)
				e.cnf.AddClause(eq.Not(), e.sel[x][i].Not())
			}
		}
		for j, c := range e.domains[y] {
			if e.domainIndex(x, c) < 0 {
				e.cnf.AddClause(eq.Not(), e.sel[y][j].Not())
			}
		}
		if e.hasFr[x] {
			e.cnf.AddClause(eq.Not(), e.sel[x][len(e.domains[x])].Not())
		}
		if e.hasFr[y] {
			e.cnf.AddClause(eq.Not(), e.sel[y][len(e.domains[y])].Not())
		}
		return eq
	}
}

// encode builds the full formula.
func (e *encoder) encode() *sat.CNF {
	st := e.st
	// Every edge of one rule over the same templates requires the same
	// atoms: each is asserted once.
	required := map[sat.Lit]bool{}
	for _, conj := range st.required {
		for _, a := range conj {
			if l := e.atomLit(a); !required[l] {
				required[l] = true
				e.cnf.AddClause(l)
			}
		}
	}
	for _, conj := range st.forbidden {
		clause := make(sat.Clause, 0, len(conj))
		for _, a := range conj {
			clause = append(clause, e.atomLit(a).Not())
		}
		e.cnf.AddClause(clause...)
	}
	for _, g := range st.guarded {
		clause := make(sat.Clause, 0, len(g.conds)+len(g.matches))
		for _, a := range g.conds {
			clause = append(clause, e.atomLit(a).Not())
		}
		for _, m := range g.matches {
			mk := sat.Pos(e.cnf.NewVar())
			for _, a := range m {
				e.cnf.AddClause(mk.Not(), e.atomLit(a)) // mk → atom
			}
			clause = append(clause, mk)
		}
		e.cnf.AddClause(clause...)
	}
	return e.cnf
}

// solve runs step 4: encode, solve with the complete DPLL (the paper's
// Walksat is incomplete and may reject a satisfiable update when it gives
// up; here an update is rejected exactly when its encoding is
// unsatisfiable), then instantiate the templates and the induced subtree
// content from the model.
func (st *insertState) solve() ([]relational.Mutation, []InducedEdge, error) {
	e := newEncoder(st)
	model, ok := sat.DPLL(e.encode())
	if !ok {
		return nil, nil, &RejectedError{Reason: "no side-effect-free instantiation exists (SAT unsatisfiable)"}
	}

	cache := map[int]relational.Value{}
	assign := func(v int) (relational.Value, error) {
		if got, ok := cache[v]; ok {
			return got, nil
		}
		for i, lit := range e.sel[v] {
			if !lit.Satisfied(model) {
				continue
			}
			if i < len(e.domains[v]) {
				cache[v] = e.domains[v][i]
				return e.domains[v][i], nil
			}
			break
		}
		// Fresh slot or fully unconstrained: pick a fresh value once.
		val, err := st.freshValue(st.vars[v].typ)
		if err != nil {
			return relational.Value{}, err
		}
		cache[v] = val
		return val, nil
	}
	concretize := func(t relational.Tuple) (relational.Tuple, error) {
		row := t.Clone()
		for i, v := range row {
			if v.IsVar() {
				val, err := assign(v.VarID())
				if err != nil {
					return nil, err
				}
				row[i] = val
			}
		}
		return row, nil
	}

	keys := make([]string, 0, len(st.templates))
	for k := range st.templates {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []relational.Mutation
	for _, k := range keys {
		tm := st.templates[k]
		row, err := concretize(tm.row)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, relational.Mutation{Table: tm.table, Insert: true, Tuple: row})
	}

	// Materialize induced rows whose conditions hold under the model.
	var induced []InducedEdge
	seen := map[string]bool{}
	for _, ir := range st.induced {
		holds := true
		for _, a := range ir.conds {
			l, err := concretizeValue(a.L, assign)
			if err != nil {
				return nil, nil, err
			}
			r, err := concretizeValue(a.R, assign)
			if err != nil {
				return nil, nil, err
			}
			if !l.Equal(r) {
				holds = false
				break
			}
		}
		if !holds {
			continue
		}
		attr, err := concretize(ir.attr)
		if err != nil {
			return nil, nil, err
		}
		key := fmt.Sprintf("%d|%s|%s", ir.parent, ir.childType, attr.Encode())
		if seen[key] {
			continue
		}
		seen[key] = true
		induced = append(induced, InducedEdge{Parent: ir.parent, ChildType: ir.childType, Attr: attr})
	}
	return out, induced, nil
}

func concretizeValue(v relational.Value, assign func(int) (relational.Value, error)) (relational.Value, error) {
	if v.IsVar() {
		return assign(v.VarID())
	}
	return v, nil
}

// Fresh values are "zfresh<n>" strings and 2^40+n integers.
const (
	freshPrefix = "zfresh"
	freshBase   = int64(1) << 40
)

// freshValue picks a value outside the active domain for an infinite-domain
// variable (case (b) of §4.3). The counter starts past every fresh-shaped
// value in the database (seedFresh), so a restored view or a caller's own
// rows cannot make it repeat one.
func (st *insertState) freshValue(k relational.Kind) (relational.Value, error) {
	tr := st.tr
	if tr.fresh == 0 {
		tr.fresh = tr.seedFresh()
	}
	if tr.fresh >= math.MaxInt64-freshBase {
		return relational.Value{}, fmt.Errorf("viewupdate: fresh values exhausted")
	}
	tr.fresh++
	switch k {
	case relational.KindString:
		return relational.Str(freshPrefix + strconv.FormatInt(tr.fresh, 10)), nil
	case relational.KindInt:
		return relational.Int(freshBase + tr.fresh), nil
	default:
		return relational.Value{}, fmt.Errorf("viewupdate: cannot pick a fresh value of kind %v", k)
	}
}

// seedFresh returns the largest n of a fresh-shaped value in the database,
// or 0: one scan of every row, paid on the first fresh value a Translator
// mints.
func (tr *Translator) seedFresh() int64 {
	var high int64
	for _, name := range tr.DB.Schema.TableNames() {
		tr.DB.Rel(name).Scan(func(t relational.Tuple) bool {
			for _, v := range t {
				var n int64
				switch v.K {
				case relational.KindString:
					if digits, ok := strings.CutPrefix(v.S, freshPrefix); ok {
						if x, err := strconv.ParseInt(digits, 10, 64); err == nil {
							n = x
						}
					}
				case relational.KindInt:
					if v.I > freshBase {
						n = v.I - freshBase
					}
				}
				high = max(high, n)
			}
			return true
		})
	}
	return high
}
