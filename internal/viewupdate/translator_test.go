package viewupdate

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"rxview/internal/atg"
	"rxview/internal/dag"
	"rxview/internal/dtd"
	"rxview/internal/relational"
	"rxview/internal/testkit"
	"rxview/internal/workload"
)

// fixture publishes the registrar view and builds a translator.
func fixture(t testing.TB) (*workload.Registrar, *dag.DAG, *Translator) {
	t.Helper()
	reg := testkit.Must(workload.NewRegistrar())
	d, err := reg.ATG.PublishDAG(reg.DB)
	if err != nil {
		t.Fatal(err)
	}
	return reg, d, NewTranslator(reg.ATG, reg.DB, d)
}

func node(t testing.TB, d *dag.DAG, typ string, vals ...string) dag.NodeID {
	t.Helper()
	attr := make(relational.Tuple, len(vals))
	for i, v := range vals {
		attr[i] = relational.Str(v)
	}
	id, ok := d.Lookup(typ, attr)
	if !ok {
		t.Fatalf("node %s%v not found", typ, vals)
	}
	return id
}

// dagsEquivalent compares two DAGs by (type, attr) node identity and edges.
func dagsEquivalent(a, b *dag.DAG) error {
	keyOf := func(d *dag.DAG, id dag.NodeID) string {
		return d.Type(id) + "\x00" + d.Attr(id).Encode()
	}
	aNodes := map[string]dag.NodeID{}
	for _, id := range a.Nodes() {
		aNodes[keyOf(a, id)] = id
	}
	bNodes := map[string]dag.NodeID{}
	for _, id := range b.Nodes() {
		bNodes[keyOf(b, id)] = id
	}
	for k := range aNodes {
		if _, ok := bNodes[k]; !ok {
			return fmt.Errorf("node %q only in first DAG", k)
		}
	}
	for k := range bNodes {
		if _, ok := aNodes[k]; !ok {
			return fmt.Errorf("node %q only in second DAG", k)
		}
	}
	edgeSet := func(d *dag.DAG) map[string]bool {
		out := map[string]bool{}
		for _, u := range d.Nodes() {
			for _, v := range d.Children(u) {
				out[keyOf(d, u)+"→"+keyOf(d, v)] = true
			}
		}
		return out
	}
	ae, be := edgeSet(a), edgeSet(b)
	for e := range ae {
		if !be[e] {
			return fmt.Errorf("edge %q only in first DAG", e)
		}
	}
	for e := range be {
		if !ae[e] {
			return fmt.Errorf("edge %q only in second DAG", e)
		}
	}
	return nil
}

// applyAndCheck applies ΔR to a clone of the database, republishes, and
// compares with the (post-ΔV) DAG: the paper's correctness criterion
// ΔX(T) = σ(ΔR(I)).
func applyAndCheck(t *testing.T, reg *workload.Registrar, d *dag.DAG, dr []relational.Mutation) {
	t.Helper()
	clone := reg.DB.Clone()
	if err := clone.Apply(dr); err != nil {
		t.Fatalf("apply ΔR: %v", err)
	}
	fresh, err := reg.ATG.PublishDAG(clone)
	if err != nil {
		t.Fatalf("republish: %v", err)
	}
	// Drop unreachable leftovers in the incremental DAG before comparing.
	testkit.GarbageCollect(d)
	if err := dagsEquivalent(d, fresh); err != nil {
		t.Fatalf("ΔX(T) != σ(ΔR(I)): %v", err)
	}
}

func TestTranslateDeleteSingleEdge(t *testing.T) {
	reg, d, tr := fixture(t)
	// Delete student S02 from takenBy(CS320): Example 5's ΔV1.
	tb := node(t, d, "takenBy", "CS320")
	s02 := node(t, d, "student", "S02", "Bob")
	dv := []dag.Edge{{Parent: tb, Child: s02}}
	dr, err := tr.TranslateDelete(dv)
	if err != nil {
		t.Fatal(err)
	}
	// The only side-effect-free source is the enroll(S02, CS320) tuple:
	// deleting student S02 itself would also remove the takenBy(CS650) edge.
	if len(dr) != 1 || dr[0].Table != "enroll" {
		t.Fatalf("ΔR = %v", dr)
	}
	if dr[0].Tuple[0].S != "S02" || dr[0].Tuple[1].S != "CS320" {
		t.Fatalf("ΔR tuple = %v", dr[0].Tuple)
	}
	// Full consistency.
	d.RemoveEdge(tb, s02)
	tr.NoteEdgeDeleted(dag.Edge{Parent: tb, Child: s02})
	applyAndCheck(t, reg, d, dr)
}

func TestTranslateDeleteGroupPrefersCoveringSource(t *testing.T) {
	_, d, tr := fixture(t)
	// Delete S02 from both takenBy nodes: ΔV2 of Example 5. Deleting the
	// student tuple covers both edges with one base deletion.
	tb650 := node(t, d, "takenBy", "CS650")
	tb320 := node(t, d, "takenBy", "CS320")
	s02 := node(t, d, "student", "S02", "Bob")
	dv := []dag.Edge{{Parent: tb650, Child: s02}, {Parent: tb320, Child: s02}}
	dr, err := tr.TranslateDelete(dv)
	if err != nil {
		t.Fatal(err)
	}
	if len(dr) != 1 || dr[0].Table != "student" {
		t.Fatalf("ΔR = %v, want single student deletion", dr)
	}
}

func TestTranslateDeleteRejectsSideEffects(t *testing.T) {
	_, d, tr := fixture(t)
	// Deleting only the top-level CS320 edge is impossible: the course
	// tuple also derives the prereq(CS650)→CS320 edge.
	db := d.Root()
	c320 := node(t, d, "course", "CS320", "Databases")
	_, err := tr.TranslateDelete([]dag.Edge{{Parent: db, Child: c320}})
	var rej *RejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("err = %v, want RejectedError", err)
	}
	if !tr.Updatable([]dag.Edge{{Parent: node(t, d, "takenBy", "CS320"), Child: node(t, d, "student", "S02", "Bob")}}) {
		t.Error("single enroll-backed deletion should be updatable")
	}
	if tr.Updatable([]dag.Edge{{Parent: db, Child: c320}}) {
		t.Error("side-effecting deletion should not be updatable")
	}
}

func TestTranslateDeleteBothOccurrences(t *testing.T) {
	reg, d, tr := fixture(t)
	// Deleting CS320 from BOTH the top level and prereq(CS650) is fine:
	// the course tuple now only derives deleted edges.
	db := d.Root()
	c320 := node(t, d, "course", "CS320", "Databases")
	pre650 := node(t, d, "prereq", "CS650")
	dv := []dag.Edge{{Parent: db, Child: c320}, {Parent: pre650, Child: c320}}
	dr, err := tr.TranslateDelete(dv)
	if err != nil {
		t.Fatal(err)
	}
	// One deletion (course row) covers both edges.
	if len(dr) != 1 || dr[0].Table != "course" {
		t.Fatalf("ΔR = %v", dr)
	}
	for _, e := range dv {
		d.RemoveEdge(e.Parent, e.Child)
		tr.NoteEdgeDeleted(e)
	}
	applyAndCheck(t, reg, d, dr)
}

func TestTranslateDeleteSequenceEdgeRejected(t *testing.T) {
	_, d, tr := fixture(t)
	c320 := node(t, d, "course", "CS320", "Databases")
	cno := node(t, d, "cno", "CS320")
	_, err := tr.TranslateDelete([]dag.Edge{{Parent: c320, Child: cno}})
	var rej *RejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("deleting a sequence-child edge must be rejected: %v", err)
	}
}

func TestMinimalDeleteExactVsGreedy(t *testing.T) {
	_, d, tr := fixture(t)
	tb650 := node(t, d, "takenBy", "CS650")
	tb320 := node(t, d, "takenBy", "CS320")
	s02 := node(t, d, "student", "S02", "Bob")
	dv := []dag.Edge{{Parent: tb650, Child: s02}, {Parent: tb320, Child: s02}}
	m, err := NewMinimalDelete(tr, dv)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := m.Greedy()
	if err != nil {
		t.Fatal(err)
	}
	exact, err := m.Exact()
	if err != nil {
		t.Fatal(err)
	}
	if len(exact) > len(greedy) {
		t.Errorf("exact %d > greedy %d", len(exact), len(greedy))
	}
	if len(exact) != 1 {
		t.Errorf("optimal ΔR size = %d, want 1 (delete the student)", len(exact))
	}
}

// TestMinimalDeleteSetCoverGadget builds the Theorem 3 set-cover structure:
// view tuples joining A and B rows, where choosing deletions is a covering
// problem. Exact must beat or match greedy and find the optimum.
func TestMinimalDeleteSetCoverGadget(t *testing.T) {
	intK := relational.KindInt
	schema := testkit.Must(relational.NewSchema(
		testkit.Must(relational.NewTableSchema("A", []relational.Column{
			{Name: "ka", Type: intK}, {Name: "x", Type: intK}}, "ka")),
		testkit.Must(relational.NewTableSchema("B", []relational.Column{
			{Name: "kb", Type: intK}, {Name: "x", Type: intK}}, "kb")),
	))
	d, err := dtd.Parse(`
<!ELEMENT db (pair*)>
<!ELEMENT pair (#PCDATA)>
`)
	if err != nil {
		t.Fatal(err)
	}
	q := &relational.SPJ{
		Name: "Qdb_pair",
		From: []relational.TableRef{{Table: "A"}, {Table: "B"}},
		Where: []relational.EqPred{
			{Left: relational.Col(0, 1), Right: relational.Col(1, 1)},
		},
		Selects: []relational.SelectItem{
			{As: "ka", Src: relational.Col(0, 0)},
			{As: "kb", Src: relational.Col(1, 0)},
		},
	}
	compiled, err2 := atg.NewBuilder(d, schema).
		Attr("pair", atg.Field("ka", intK), atg.Field("kb", intK)).
		QueryRule("db", "pair", q).
		Build()
	err = err2
	if err != nil {
		t.Fatal(err)
	}
	db := relational.NewDatabase(schema)
	// A1 joins B1,B2,B3 (x=1); A2 joins B4 (x=2).
	testkit.Insert(db.Rel("A"), relational.Int(1), relational.Int(1))
	testkit.Insert(db.Rel("A"), relational.Int(2), relational.Int(2))
	for i, x := range []int64{1, 1, 1, 2} {
		testkit.Insert(db.Rel("B"), relational.Int(int64(i+1)), relational.Int(x))
	}
	dg, err := compiled.PublishDAG(db)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTranslator(compiled, db, dg)
	// Delete all 4 pairs: optimum is {A1, A2} (2 deletions), not 4 B rows.
	var dv []dag.Edge
	for _, id := range dg.NodesOfType("pair") {
		dv = append(dv, dag.Edge{Parent: dg.Root(), Child: id})
	}
	if len(dv) != 4 {
		t.Fatalf("pairs = %d", len(dv))
	}
	m, err := NewMinimalDelete(tr, dv)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := m.Exact()
	if err != nil {
		t.Fatal(err)
	}
	if len(exact) != 2 {
		t.Errorf("exact cover size = %d, want 2: %v", len(exact), exact)
	}
	greedy, err := m.Greedy()
	if err != nil {
		t.Fatal(err)
	}
	if len(greedy) < len(exact) {
		t.Error("greedy smaller than exact (impossible)")
	}
}

func TestRejectedErrorMessage(t *testing.T) {
	err := &RejectedError{Reason: "because"}
	if !strings.Contains(err.Error(), "because") {
		t.Error("message lost")
	}
}

// TestSourceIndexMaintenanceDoesNotAllocate: moving the count of a source the
// index knows builds its key on the stack and assigns nothing into the map,
// and the counts it leaves are the ones a rebuild finds.
func TestSourceIndexMaintenanceDoesNotAllocate(t *testing.T) {
	reg, d, tr := fixture(t)
	e := dag.Edge{Parent: node(t, d, "takenBy", "CS320"), Child: node(t, d, "student", "S02", "Bob")}
	if len(tr.sources(e)) == 0 {
		t.Fatal("the edge has no sources")
	}
	if n := testing.AllocsPerRun(100, func() {
		tr.NoteEdgeDeleted(e)
		tr.NoteEdgeInserted(e)
	}); n != 0 {
		t.Errorf("NoteEdgeDeleted + NoteEdgeInserted allocate %v objects, want 0", n)
	}
	if err := tr.EqualSources(NewTranslator(reg.ATG, reg.DB, d)); err != nil {
		t.Error(err)
	}
	for _, s := range tr.sources(e) {
		if tr.src.count(s.Encode()) == 0 {
			t.Errorf("source %s of a live edge counts zero", s)
		}
	}
}
