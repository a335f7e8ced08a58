package viewupdate

// Theorem 2 of the paper: the SPJ view updatability problem for insertions
// is NP-complete, by reduction from non-tautology. This test realizes the
// reduction inside the ATG framework and checks, against an exact oracle,
// that the insertion is translatable iff the formula is NOT a tautology.
//
// Encoding (the spirit of the paper's R/Rφ/RE gadget, adapted to edge
// views):
//
//   - R(A, B, g) holds a truth assignment: inserting asg(i) view elements
//     forces template rows R(i, b_i, 1) with b_i ∈ {0,1} free;
//   - CL holds the clauses of the DNF φ = ⋁ Cj, Cj = l1 ∧ l2 ∧ l3;
//   - the hit rule joins three R rows against a clause: a hit element
//     appears under the (pre-existing) trig node iff some clause is
//     satisfied by the assignment — an unrequested view change.
//
// Hence a side-effect-free ΔR exists iff some assignment falsifies every
// clause iff φ is not a tautology.

import (
	"errors"
	"math/rand"
	"testing"

	"rxview/internal/atg"
	"rxview/internal/dag"
	"rxview/internal/dtd"
	"rxview/internal/relational"
	"rxview/internal/sat"
	"rxview/internal/testkit"
)

type dnfClause struct {
	vars  [3]int64 // variable ids 1..k
	signs [3]int64 // 1 = positive literal, 0 = negated
}

func theorem2Fixture(t *testing.T, k int, clauses []dnfClause) (*atg.Compiled, *relational.Database, *dag.DAG, *Translator) {
	t.Helper()
	intK := relational.KindInt
	bit := []relational.Value{relational.Int(0), relational.Int(1)}
	schema := testkit.Must(relational.NewSchema(
		testkit.Must(relational.NewTableSchema("R", []relational.Column{
			{Name: "A", Type: intK},
			{Name: "B", Type: intK, Domain: bit},
			{Name: "g", Type: intK},
		}, "A")),
		testkit.Must(relational.NewTableSchema("E", []relational.Column{
			{Name: "k", Type: intK},
			{Name: "g", Type: intK},
		}, "k")),
		testkit.Must(relational.NewTableSchema("CL", []relational.Column{
			{Name: "j", Type: intK},
			{Name: "v1", Type: intK}, {Name: "v2", Type: intK}, {Name: "v3", Type: intK},
			{Name: "s1", Type: intK}, {Name: "s2", Type: intK}, {Name: "s3", Type: intK},
		}, "j")),
		testkit.Must(relational.NewTableSchema("G", []relational.Column{
			{Name: "k", Type: intK},
		}, "k")),
	))
	d, err := dtd.Parse(`
<!ELEMENT db (grp*)>
<!ELEMENT grp (asgs, trigs)>
<!ELEMENT asgs (asg*)>
<!ELEMENT trigs (trig*)>
<!ELEMENT trig (hit*)>
<!ELEMENT asg (#PCDATA)>
<!ELEMENT hit (#PCDATA)>
`)
	if err != nil {
		t.Fatal(err)
	}
	qGrp := &relational.SPJ{
		Name:    "Qdb_grp",
		From:    []relational.TableRef{{Table: "G"}},
		Selects: []relational.SelectItem{{As: "k", Src: relational.Col(0, 0)}},
	}
	qAsg := &relational.SPJ{
		Name:    "Qasgs_asg",
		NParams: 1,
		From:    []relational.TableRef{{Table: "R"}},
		Where: []relational.EqPred{
			{Left: relational.Col(0, 2), Right: relational.Param(0)}, // r.g = $asgs
		},
		Selects: []relational.SelectItem{{As: "A", Src: relational.Col(0, 0)}},
	}
	qTrig := &relational.SPJ{
		Name:    "Qtrigs_trig",
		NParams: 1,
		From:    []relational.TableRef{{Table: "E"}},
		Where: []relational.EqPred{
			{Left: relational.Col(0, 1), Right: relational.Param(0)},
		},
		Selects: []relational.SelectItem{{As: "k", Src: relational.Col(0, 0)}},
	}
	qHit := &relational.SPJ{
		Name:    "Qtrig_hit",
		NParams: 1,
		From: []relational.TableRef{
			{Table: "E"}, {Table: "CL"},
			{Table: "R", Alias: "r1"}, {Table: "R", Alias: "r2"}, {Table: "R", Alias: "r3"},
		},
		Where: []relational.EqPred{
			{Left: relational.Col(0, 0), Right: relational.Param(0)},  // e.k = $trig
			{Left: relational.Col(2, 0), Right: relational.Col(1, 1)}, // r1.A = c.v1
			{Left: relational.Col(3, 0), Right: relational.Col(1, 2)}, // r2.A = c.v2
			{Left: relational.Col(4, 0), Right: relational.Col(1, 3)}, // r3.A = c.v3
			{Left: relational.Col(2, 1), Right: relational.Col(1, 4)}, // r1.B = c.s1
			{Left: relational.Col(3, 1), Right: relational.Col(1, 5)}, // r2.B = c.s2
			{Left: relational.Col(4, 1), Right: relational.Col(1, 6)}, // r3.B = c.s3
		},
		Selects: []relational.SelectItem{
			{As: "j", Src: relational.Col(1, 0)},
			{As: "v1", Src: relational.Col(1, 1)},
			{As: "v2", Src: relational.Col(1, 2)},
			{As: "v3", Src: relational.Col(1, 3)},
		},
	}
	compiled, err := atg.NewBuilder(d, schema).
		Attr("grp", atg.Field("k", intK)).
		Attr("asgs", atg.Field("k", intK)).
		Attr("trigs", atg.Field("k", intK)).
		Attr("trig", atg.Field("k", intK)).
		Attr("asg", atg.Field("A", intK)).
		Attr("hit", atg.Field("j", intK), atg.Field("v1", intK), atg.Field("v2", intK), atg.Field("v3", intK)).
		QueryRule("db", "grp", qGrp).
		ProjRule("grp", "asgs", atg.FromParent(0)).
		ProjRule("grp", "trigs", atg.FromParent(0)).
		QueryRule("asgs", "asg", qAsg).
		QueryRule("trigs", "trig", qTrig).
		QueryRule("trig", "hit", qHit).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	db := relational.NewDatabase(schema)
	testkit.Insert(db.Rel("G"), relational.Int(1))
	testkit.Insert(db.Rel("E"), relational.Int(1), relational.Int(1))
	for j, c := range clauses {
		testkit.Insert(db.Rel("CL"),
			relational.Int(int64(j+1)),
			relational.Int(c.vars[0]), relational.Int(c.vars[1]), relational.Int(c.vars[2]),
			relational.Int(c.signs[0]), relational.Int(c.signs[1]), relational.Int(c.signs[2]),
		)
	}
	dg, err := compiled.PublishDAG(db)
	if err != nil {
		t.Fatal(err)
	}
	return compiled, db, dg, NewTranslator(compiled, db, dg)
}

// updatableInsertion runs the reduction's ΔV (insert asg(1..k)) and reports
// whether a side-effect-free ΔR exists.
func updatableInsertion(t *testing.T, k int, clauses []dnfClause) bool {
	t.Helper()
	compiled, db, dg, tr := theorem2Fixture(t, k, clauses)
	asgs, ok := dg.Lookup("asgs", relational.Tuple{relational.Int(1)})
	if !ok {
		t.Fatal("asgs node missing")
	}
	dg.Begin()
	defer dg.Rollback()
	for i := 1; i <= k; i++ {
		n, _ := dg.AddNode("asg", relational.Tuple{relational.Int(int64(i))})
		dg.AddEdge(asgs, n)
	}
	dr, induced, err := tr.TranslateInsert(dg.DeltaSince(0))
	if err != nil {
		var rej *RejectedError
		if !errors.As(err, &rej) {
			t.Fatalf("unexpected error kind: %v", err)
		}
		return false
	}
	if len(induced) != 0 {
		t.Fatalf("induced = %v (hit nodes must not be induced: trig(1) is old)", induced)
	}
	// Verify the model: apply and republish.
	clone := db.Clone()
	if err := clone.Apply(dr); err != nil {
		t.Fatal(err)
	}
	fresh, err := compiled.PublishDAG(clone)
	if err != nil {
		t.Fatal(err)
	}
	if err := dagsEquivalent(dg, fresh); err != nil {
		t.Fatalf("accepted ΔR is inconsistent: %v", err)
	}
	return true
}

// tautology checks the DNF with the exact DPLL-based oracle.
func isTautology(k int, clauses []dnfClause) bool {
	cubes := make([][]sat.Lit, len(clauses))
	for j, c := range clauses {
		for i := 0; i < 3; i++ {
			v := int(c.vars[i] - 1)
			if c.signs[i] == 1 {
				cubes[j] = append(cubes[j], sat.Pos(v))
			} else {
				cubes[j] = append(cubes[j], sat.Neg(v))
			}
		}
	}
	return testkit.Tautology(k, cubes)
}

func TestTheorem2CraftedInstances(t *testing.T) {
	cases := []struct {
		name    string
		k       int
		clauses []dnfClause
		taut    bool
	}{
		{
			name: "x or not-x (tautology)",
			k:    1,
			clauses: []dnfClause{
				{vars: [3]int64{1, 1, 1}, signs: [3]int64{1, 1, 1}},
				{vars: [3]int64{1, 1, 1}, signs: [3]int64{0, 0, 0}},
			},
			taut: true,
		},
		{
			name: "x or y (not a tautology)",
			k:    2,
			clauses: []dnfClause{
				{vars: [3]int64{1, 1, 1}, signs: [3]int64{1, 1, 1}},
				{vars: [3]int64{2, 2, 2}, signs: [3]int64{1, 1, 1}},
			},
			taut: false,
		},
		{
			name: "(x and y) or not-x or (x and not-y) (tautology)",
			k:    2,
			clauses: []dnfClause{
				{vars: [3]int64{1, 2, 2}, signs: [3]int64{1, 1, 1}},
				{vars: [3]int64{1, 1, 1}, signs: [3]int64{0, 0, 0}},
				{vars: [3]int64{1, 2, 2}, signs: [3]int64{1, 0, 0}},
			},
			taut: true,
		},
		{
			name: "single clause (never a tautology)",
			k:    3,
			clauses: []dnfClause{
				{vars: [3]int64{1, 2, 3}, signs: [3]int64{1, 0, 1}},
			},
			taut: false,
		},
	}
	for _, c := range cases {
		if got := isTautology(c.k, c.clauses); got != c.taut {
			t.Fatalf("%s: oracle says taut=%v, expected %v (test bug)", c.name, got, c.taut)
		}
		updatable := updatableInsertion(t, c.k, c.clauses)
		if updatable != !c.taut {
			t.Errorf("%s: updatable=%v, want %v (Theorem 2: updatable iff not tautology)",
				c.name, updatable, !c.taut)
		}
	}
}

func TestTheorem2RandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 15; trial++ {
		k := 2 + rng.Intn(3)
		n := 1 + rng.Intn(5)
		clauses := make([]dnfClause, n)
		for j := range clauses {
			for i := 0; i < 3; i++ {
				clauses[j].vars[i] = int64(1 + rng.Intn(k))
				clauses[j].signs[i] = int64(rng.Intn(2))
			}
		}
		want := !isTautology(k, clauses)
		got := updatableInsertion(t, k, clauses)
		if got != want {
			t.Fatalf("trial %d: updatable=%v, want %v (clauses %v)", trial, got, want, clauses)
		}
	}
}
