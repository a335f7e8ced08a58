package viewupdate

// White-box tests of the SAT encoding (§4.3): variable domains, atom
// literals (including var=var equality over shared domains and fresh
// slots), required/forbidden conjunctions and guarded match disjunctions.
//
// Note: under key preservation an edge has a unique derivation, which makes
// the guarded-with-feasible-match case unreachable through the public
// pipeline (the match would have to coincide with the edge's own
// determined template). The encoder still implements it defensively; these
// tests exercise it directly.

import (
	"sort"
	"testing"

	"rxview/internal/dag"
	"rxview/internal/relational"
	"rxview/internal/sat"
	"rxview/internal/testkit"
)

func bitDomain() []relational.Value {
	return []relational.Value{relational.Int(0), relational.Int(1)}
}

func newState(t *testing.T) *insertState {
	t.Helper()
	return &insertState{
		templates: map[string]*template{},
		byTable:   map[string][]*template{},
		newNodes:  map[dag.NodeID]bool{},
	}
}

func (st *insertState) addVar(dom []relational.Value, kind relational.Kind) relational.Value {
	st.vars = append(st.vars, varInfo{typ: kind, domain: dom})
	return relational.Var(len(st.vars) - 1)
}

func solveState(t *testing.T, st *insertState) ([]bool, bool) {
	t.Helper()
	e := newEncoder(st)
	f := e.encode()
	m, ok := sat.DPLL(f)
	if ok && !testkit.Satisfied(f, m) {
		t.Fatal("DPLL returned a non-model")
	}
	return m, ok
}

func TestEncodeRequiredForcesValue(t *testing.T) {
	st := newState(t)
	x := st.addVar(bitDomain(), relational.KindInt)
	st.required = append(st.required, []symAtom{{L: x, R: relational.Int(1)}})
	e := newEncoder(st)
	f := e.encode()
	m, ok := sat.DPLL(f)
	if !ok {
		t.Fatal("should be SAT")
	}
	// x's selector for value 1 must be true.
	if !e.sel[0][1].Satisfied(m) {
		t.Error("required atom did not force x=1")
	}
}

func TestEncodeForbiddenConjunction(t *testing.T) {
	st := newState(t)
	x := st.addVar(bitDomain(), relational.KindInt)
	y := st.addVar(bitDomain(), relational.KindInt)
	// Forbid (x=1 ∧ y=1); require x=1 — so y must be 0.
	st.required = append(st.required, []symAtom{{L: x, R: relational.Int(1)}})
	st.forbidden = append(st.forbidden, []symAtom{
		{L: x, R: relational.Int(1)},
		{L: y, R: relational.Int(1)},
	})
	e := newEncoder(st)
	f := e.encode()
	m, ok := sat.DPLL(f)
	if !ok {
		t.Fatal("should be SAT")
	}
	if !e.sel[1][0].Satisfied(m) {
		t.Error("y should be forced to 0")
	}
}

func TestEncodeUnsatisfiableRequirements(t *testing.T) {
	st := newState(t)
	x := st.addVar(bitDomain(), relational.KindInt)
	st.required = append(st.required,
		[]symAtom{{L: x, R: relational.Int(0)}},
		[]symAtom{{L: x, R: relational.Int(1)}},
	)
	if _, ok := solveState(t, st); ok {
		t.Error("conflicting requirements should be UNSAT")
	}
}

func TestEncodeVarVarEquality(t *testing.T) {
	st := newState(t)
	x := st.addVar(bitDomain(), relational.KindInt)
	y := st.addVar(bitDomain(), relational.KindInt)
	// x = y required, x = 1 required → y = 1.
	st.required = append(st.required,
		[]symAtom{{L: x, R: y}},
		[]symAtom{{L: x, R: relational.Int(1)}},
	)
	e := newEncoder(st)
	f := e.encode()
	m, ok := sat.DPLL(f)
	if !ok {
		t.Fatal("should be SAT")
	}
	if !e.sel[1][1].Satisfied(m) {
		t.Error("x=y with x=1 should force y=1")
	}
	// Self-equality is trivially true; fresh-vs-fresh never equal.
	if e.atomLit(symAtom{L: x, R: x}) != e.litTrue {
		t.Error("x=x should be litTrue")
	}
}

func TestEncodeVarVarWithInfiniteDomains(t *testing.T) {
	st := newState(t)
	// Two string (infinite-domain) vars: their domains are the mentioned
	// constants plus a fresh slot; fresh slots never coincide.
	x := st.addVar(nil, relational.KindString)
	y := st.addVar(nil, relational.KindString)
	st.required = append(st.required,
		[]symAtom{{L: x, R: y}},
		[]symAtom{{L: x, R: relational.Str("hello")}},
	)
	e := newEncoder(st)
	f := e.encode()
	m, ok := sat.DPLL(f)
	if !ok {
		t.Fatal("should be SAT")
	}
	// Both must select "hello" (the only shared concrete value).
	if !e.sel[0][e.domainIndex(0, relational.Str("hello"))].Satisfied(m) {
		t.Error("x != hello")
	}
	if !e.sel[1][e.domainIndex(1, relational.Str("hello"))].Satisfied(m) {
		t.Error("y != hello")
	}

	// Requiring x=y but forbidding every shared constant → UNSAT (fresh
	// slots cannot be equal).
	st2 := newState(t)
	a := st2.addVar(nil, relational.KindString)
	b := st2.addVar(nil, relational.KindString)
	st2.required = append(st2.required, []symAtom{{L: a, R: b}})
	st2.forbidden = append(st2.forbidden,
		[]symAtom{{L: a, R: relational.Str("only")}},
	)
	// Mention "only" for b too so domains share it.
	st2.forbidden = append(st2.forbidden,
		[]symAtom{{L: b, R: relational.Str("only")}},
	)
	if _, ok := solveState(t, st2); ok {
		t.Error("a=b with the only shared constant forbidden should be UNSAT")
	}
}

func TestEncodeConstOutsideDomainIsFalse(t *testing.T) {
	st := newState(t)
	x := st.addVar(bitDomain(), relational.KindInt)
	e := newEncoder(st)
	if got := e.atomLit(symAtom{L: x, R: relational.Int(7)}); got != e.litFalse {
		t.Error("value outside the finite domain should yield litFalse")
	}
	if got := e.atomLit(symAtom{L: relational.Int(3), R: relational.Int(3)}); got != e.litTrue {
		t.Error("equal constants should yield litTrue")
	}
	if got := e.atomLit(symAtom{L: relational.Int(3), R: relational.Int(4)}); got != e.litFalse {
		t.Error("unequal constants should yield litFalse")
	}
}

func TestEncodeGuardedRowPicksMatch(t *testing.T) {
	// Guarded: ¬(g=1) ∨ (x matches an expected value). Require g=1 so the
	// guard cannot be discharged by falsifying the condition: the match
	// conjunction must then hold.
	st := newState(t)
	g := st.addVar(bitDomain(), relational.KindInt)
	x := st.addVar(bitDomain(), relational.KindInt)
	st.required = append(st.required, []symAtom{{L: g, R: relational.Int(1)}})
	st.guarded = append(st.guarded, guardedRow{
		conds:   []symAtom{{L: g, R: relational.Int(1)}},
		matches: [][]symAtom{{{L: x, R: relational.Int(0)}}},
	})
	e := newEncoder(st)
	f := e.encode()
	m, ok := sat.DPLL(f)
	if !ok {
		t.Fatal("should be SAT")
	}
	if !e.sel[1][0].Satisfied(m) {
		t.Error("guarded match should force x=0")
	}
}

func TestEncodeGuardedRowFalsifiesCondition(t *testing.T) {
	// Same guarded row but the match is impossible (empty domain overlap):
	// the solver must falsify the condition instead.
	st := newState(t)
	g := st.addVar(bitDomain(), relational.KindInt)
	x := st.addVar(bitDomain(), relational.KindInt)
	st.guarded = append(st.guarded, guardedRow{
		conds:   []symAtom{{L: g, R: relational.Int(1)}},
		matches: [][]symAtom{{{L: x, R: relational.Int(7)}}}, // outside domain
	})
	e := newEncoder(st)
	f := e.encode()
	m, ok := sat.DPLL(f)
	if !ok {
		t.Fatal("should be SAT")
	}
	if e.sel[0][1].Satisfied(m) {
		t.Error("condition g=1 should be falsified (match impossible)")
	}
}

// freshTranslator is a translator over one table t(k, s, i) holding rows.
func freshTranslator(t *testing.T, rows ...relational.Tuple) *Translator {
	t.Helper()
	ts := testkit.Must(relational.NewTableSchema("t", []relational.Column{
		{Name: "k", Type: relational.KindInt},
		{Name: "s", Type: relational.KindString},
		{Name: "i", Type: relational.KindInt},
	}, "k"))
	db := relational.NewDatabase(testkit.Must(relational.NewSchema(ts)))
	for _, r := range rows {
		if err := db.Insert("t", r); err != nil {
			t.Fatal(err)
		}
	}
	return &Translator{DB: db}
}

func TestFreshValueKinds(t *testing.T) {
	st := &insertState{tr: freshTranslator(t)}
	v, err := st.freshValue(relational.KindString)
	if err != nil || v.K != relational.KindString {
		t.Errorf("fresh string: %v %v", v, err)
	}
	v2, err := st.freshValue(relational.KindString)
	if err != nil || v2.Equal(v) {
		t.Error("fresh values must be distinct")
	}
	iv, err := st.freshValue(relational.KindInt)
	if err != nil || iv.K != relational.KindInt {
		t.Errorf("fresh int: %v %v", iv, err)
	}
	if _, err := st.freshValue(relational.KindBool); err == nil {
		t.Error("fresh bool should fail (finite domain)")
	}
}

// TestFreshValuesStartPastTheDatabase: the first fresh value a translator
// mints is past every fresh-shaped value the database holds, of either kind;
// values that only look alike do not move it.
func TestFreshValuesStartPastTheDatabase(t *testing.T) {
	tr := freshTranslator(t,
		relational.Tuple{relational.Int(1), relational.Str("zfresh7"), relational.Int(1<<40 + 3)},
		relational.Tuple{relational.Int(2), relational.Str("zfreshly"), relational.Int(-1 << 62)},
		relational.Tuple{relational.Int(3), relational.Str("zfresh99999999999999999999"), relational.Int(1 << 40)},
	)
	st := &insertState{tr: tr}
	if v, err := st.freshValue(relational.KindString); err != nil || v.S != "zfresh8" {
		t.Errorf("first fresh string = %v %v, want zfresh8", v, err)
	}
	if v, err := st.freshValue(relational.KindInt); err != nil || v.I != 1<<40+9 {
		t.Errorf("second fresh int = %v %v, want 2^40+9", v, err)
	}
	// A counter set back to 0 seeds again, from the database as it is then.
	if err := tr.DB.Insert("t", relational.Tuple{relational.Int(4), relational.Str("x"), relational.Int(1<<40 + 20)}); err != nil {
		t.Fatal(err)
	}
	tr.SetFresh(0)
	if v, err := st.freshValue(relational.KindString); err != nil || v.S != "zfresh21" {
		t.Errorf("fresh string after SetFresh(0) = %v %v, want zfresh21", v, err)
	}
}

func TestSymAtomAndVarHelpers(t *testing.T) {
	a := symAtom{L: relational.Var(0), R: relational.Int(1)}
	if a.String() != "?z0=1" {
		t.Errorf("String = %q", a.String())
	}
	atoms := []symAtom{
		{L: relational.Var(1), R: relational.Int(0)},
		{L: relational.Var(0), R: relational.Int(1)},
	}
	sortAtoms(atoms)
	if atoms[0].L.VarID() != 0 {
		t.Error("sortAtoms order")
	}
}

// sortAtoms orders atoms by their rendering.
func sortAtoms(atoms []symAtom) {
	sort.Slice(atoms, func(i, j int) bool {
		return atoms[i].String() < atoms[j].String()
	})
}
