package viewupdate

import (
	"errors"
	"testing"

	"rxview/internal/atg"
	"rxview/internal/dag"
	"rxview/internal/dtd"
	"rxview/internal/relational"
	"rxview/internal/testkit"
	"rxview/internal/workload"
)

// insertAndCheck runs the insert-side pipeline by hand: publish the subtree
// inside a transaction, connect it under the targets, translate, apply, and
// verify ΔX(T) = σ(ΔR(I)).
func insertAndCheck(t *testing.T, reg *workload.Registrar, d *dag.DAG, tr *Translator,
	targets []dag.NodeID, typ string, attr relational.Tuple) []relational.Mutation {
	t.Helper()
	d.Begin()
	root, err := reg.ATG.PublishSubtree(d, reg.DB, typ, attr)
	if err != nil {
		d.Rollback()
		t.Fatal(err)
	}
	for _, u := range targets {
		d.AddEdge(u, root)
	}
	newNodes, edgeAdds, _ := d.ChangesSince(0)
	dr, induced, err := tr.TranslateInsert(edgeAdds, newNodes)
	if err != nil {
		d.Rollback()
		t.Fatalf("TranslateInsert: %v", err)
	}
	if err := reg.DB.Apply(dr); err != nil {
		d.Rollback()
		t.Fatal(err)
	}
	for _, ie := range induced {
		croot, err := reg.ATG.PublishSubtree(d, reg.DB, ie.ChildType, ie.Attr)
		if err != nil {
			t.Fatal(err)
		}
		d.AddEdge(ie.Parent, croot)
	}
	d.Commit()

	fresh, err := reg.ATG.PublishDAG(reg.DB)
	if err != nil {
		t.Fatal(err)
	}
	if err := dagsEquivalent(d, fresh); err != nil {
		t.Fatalf("ΔX(T) != σ(ΔR(I)): %v", err)
	}
	return dr
}

func TestInsertExistingCourseAsPrereq(t *testing.T) {
	// Insert CS240 (an existing course) as a prerequisite of CS650: only a
	// prereq tuple is needed, fully determined, no SAT involvement.
	reg, d, tr := fixture(t)
	pre650 := node(t, d, "prereq", "CS650")
	attr := relational.Tuple{relational.Str("CS240"), relational.Str("Algorithms")}
	dr := insertAndCheck(t, reg, d, tr, []dag.NodeID{pre650}, "course", attr)
	if len(dr) != 1 || dr[0].Table != "prereq" || !dr[0].Insert {
		t.Fatalf("ΔR = %v", dr)
	}
	if dr[0].Tuple[0].S != "CS650" || dr[0].Tuple[1].S != "CS240" {
		t.Fatalf("prereq tuple = %v", dr[0].Tuple)
	}
}

func TestInsertNewCourseDerivesNonCSDept(t *testing.T) {
	// Insert a brand-new course CS100 as prereq of CS240. The course
	// template's dept column is free; making it "CS" would surface CS100 at
	// the top level (an unrequested edge), so the SAT phase must choose
	// dept ≠ CS.
	reg, d, tr := fixture(t)
	pre240 := node(t, d, "prereq", "CS240")
	attr := relational.Tuple{relational.Str("CS100"), relational.Str("Intro")}
	dr := insertAndCheck(t, reg, d, tr, []dag.NodeID{pre240}, "course", attr)

	var course relational.Tuple
	for _, m := range dr {
		if m.Table == "course" {
			course = m.Tuple
		}
	}
	if course == nil {
		t.Fatalf("no course insertion in ΔR: %v", dr)
	}
	if course[2].S == "CS" {
		t.Errorf("dept = CS would be a side effect (top-level CS100)")
	}
}

func TestInsertNewCourseAtTopLevelForcesCSDept(t *testing.T) {
	// Inserting into the db root requires the edge db→course, whose rule
	// selects dept = 'CS': the required condition forces dept = CS.
	reg, d, tr := fixture(t)
	attr := relational.Tuple{relational.Str("CS110"), relational.Str("Programming")}
	dr := insertAndCheck(t, reg, d, tr, []dag.NodeID{d.Root()}, "course", attr)
	var course relational.Tuple
	for _, m := range dr {
		if m.Table == "course" {
			course = m.Tuple
		}
	}
	if course == nil || course[2].S != "CS" {
		t.Fatalf("ΔR = %v, want course with dept=CS", dr)
	}
}

func TestInsertRejectsHardSideEffect(t *testing.T) {
	// Insert EE100 (existing, dept=EE... actually dept mismatch): requiring
	// the edge db→course for a course whose EXISTING tuple has dept != CS
	// cannot be produced.
	reg, d, tr := fixture(t)
	attr := relational.Tuple{relational.Str("EE100"), relational.Str("Circuits")}
	d.Begin()
	defer d.Rollback()
	root, err := reg.ATG.PublishSubtree(d, reg.DB, "course", attr)
	if err != nil {
		t.Fatal(err)
	}
	d.AddEdge(d.Root(), root)
	newNodes, edgeAdds, _ := d.ChangesSince(0)
	_, _, err = tr.TranslateInsert(edgeAdds, newNodes)
	var rej *RejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("err = %v, want rejection (existing EE100 has dept=EE)", err)
	}
}

func TestInsertStudentIntoTakenBy(t *testing.T) {
	// Enrolling an existing student into CS240 needs one enroll tuple.
	reg, d, tr := fixture(t)
	tb240 := node(t, d, "takenBy", "CS240")
	attr := relational.Tuple{relational.Str("S01"), relational.Str("Ann")}
	dr := insertAndCheck(t, reg, d, tr, []dag.NodeID{tb240}, "student", attr)
	if len(dr) != 1 || dr[0].Table != "enroll" {
		t.Fatalf("ΔR = %v", dr)
	}
}

func TestInsertNewStudentGroup(t *testing.T) {
	// A new student into two takenBy nodes at once: one student tuple, two
	// enroll tuples.
	reg, d, tr := fixture(t)
	tb240 := node(t, d, "takenBy", "CS240")
	tb650 := node(t, d, "takenBy", "CS650")
	attr := relational.Tuple{relational.Str("S09"), relational.Str("Zoe")}
	dr := insertAndCheck(t, reg, d, tr, []dag.NodeID{tb240, tb650}, "student", attr)
	enrolls, students := 0, 0
	for _, m := range dr {
		switch m.Table {
		case "enroll":
			enrolls++
		case "student":
			students++
		}
	}
	if enrolls != 2 || students != 1 {
		t.Fatalf("ΔR = %v", dr)
	}
}

// flagFixture builds a two-rule ATG where inserting an item can conflict
// with the db-level rule on the same flag column — an unsatisfiable
// insertion (used to exercise the UNSAT path). Both rules read table U:
//
//	db  → box*   Qdb_box:   select u.k from U where u.flag = 0
//	box → item*  Qbox_item: select u.k from U where u.boxk = $box and u.flag = <itemFlag>
func flagFixture(t *testing.T, itemFlag int64) (*atg.Compiled, *relational.Database, *dag.DAG, *Translator) {
	t.Helper()
	intK := relational.KindInt
	bit := []relational.Value{relational.Int(0), relational.Int(1)}
	schema := testkit.Must(relational.NewSchema(
		testkit.Must(relational.NewTableSchema("U", []relational.Column{
			{Name: "k", Type: intK},
			{Name: "boxk", Type: intK},
			{Name: "flag", Type: intK, Domain: bit},
		}, "k")),
	))
	d, err := dtd.Parse(`
<!ELEMENT db (box*)>
<!ELEMENT box (item*)>
<!ELEMENT item (#PCDATA)>
`)
	if err != nil {
		t.Fatal(err)
	}
	qBox := &relational.SPJ{
		Name: "Qdb_box",
		From: []relational.TableRef{{Table: "U"}},
		Where: []relational.EqPred{
			{Left: relational.Col(0, 2), Right: relational.Const(relational.Int(0))},
		},
		Selects: []relational.SelectItem{{As: "k", Src: relational.Col(0, 0)}},
	}
	qItem := &relational.SPJ{
		Name:    "Qbox_item",
		NParams: 1,
		From:    []relational.TableRef{{Table: "U"}},
		Where: []relational.EqPred{
			{Left: relational.Col(0, 1), Right: relational.Param(0)},
			{Left: relational.Col(0, 2), Right: relational.Const(relational.Int(itemFlag))},
		},
		Selects: []relational.SelectItem{{As: "k", Src: relational.Col(0, 0)}},
	}
	compiled, err := atg.NewBuilder(d, schema).
		Attr("box", atg.Field("k", intK)).
		Attr("item", atg.Field("k", intK)).
		QueryRule("db", "box", qBox).
		QueryRule("box", "item", qItem).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	db := relational.NewDatabase(schema)
	testkit.Insert(db.Rel("U"), relational.Int(1), relational.Int(0), relational.Int(0)) // box(1)
	dg, err := compiled.PublishDAG(db)
	if err != nil {
		t.Fatal(err)
	}
	return compiled, db, dg, NewTranslator(compiled, db, dg)
}

func TestInsertUnsatisfiableRejected(t *testing.T) {
	// itemFlag = 0: inserting item(9) under box(1) needs T(9, flag=0), but
	// flag=0 also makes box(9) appear under db (unrequested) — UNSAT.
	compiled, db, dg, tr := flagFixture(t, 0)
	_ = compiled
	_ = db
	box1, ok := dg.Lookup("box", relational.Tuple{relational.Int(1)})
	if !ok {
		t.Fatal("box(1) missing")
	}
	dg.Begin()
	defer dg.Rollback()
	item, _ := dg.AddNode("item", relational.Tuple{relational.Int(9)})
	dg.AddEdge(box1, item)
	newNodes, edgeAdds, _ := dg.ChangesSince(0)
	_, _, err := tr.TranslateInsert(edgeAdds, newNodes)
	var rej *RejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("err = %v, want UNSAT rejection", err)
	}
}

func TestInsertSatisfiableFlagVariant(t *testing.T) {
	// itemFlag = 1: flag must be 1 for the item edge and ≠0 keeps box(9)
	// out of the db level — satisfiable; ΔR = {T(9, 1)}.
	compiled, db, dg, tr := flagFixture(t, 1)
	box1, _ := dg.Lookup("box", relational.Tuple{relational.Int(1)})
	dg.Begin()
	item, _ := dg.AddNode("item", relational.Tuple{relational.Int(9)})
	dg.AddEdge(box1, item)
	newNodes, edgeAdds, _ := dg.ChangesSince(0)
	dr, induced, err := tr.TranslateInsert(edgeAdds, newNodes)
	if err != nil {
		dg.Rollback()
		t.Fatal(err)
	}
	if len(dr) != 1 || dr[0].Table != "U" || dr[0].Tuple[2].I != 1 {
		t.Fatalf("ΔR = %v", dr)
	}
	if len(induced) != 0 {
		t.Fatalf("induced = %v", induced)
	}
	if err := db.Apply(dr); err != nil {
		t.Fatal(err)
	}
	dg.Commit()
	fresh, err := compiled.PublishDAG(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := dagsEquivalent(dg, fresh); err != nil {
		t.Fatal(err)
	}
}

func TestInsertWithInducedContent(t *testing.T) {
	// Synthetic dataset: inserting a new C under a sub node requires an F
	// row, and the F row generates an item under the new info node — an
	// induced edge, not a side effect.
	syn := testkit.Must(workload.NewSynthetic(workload.SyntheticConfig{NC: 60, Seed: 7}))
	d, err := syn.ATG.PublishDAG(syn.DB)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTranslator(syn.ATG, syn.DB, d)

	// Pick a published sub node to insert under.
	subs := d.NodesOfType("sub")
	if len(subs) == 0 {
		t.Fatal("no sub nodes")
	}
	target := subs[0]
	key := syn.NextKey
	attr := relational.Tuple{relational.Int(key), relational.Str("vNew")}

	d.Begin()
	root, err := syn.ATG.PublishSubtree(d, syn.DB, "C", attr)
	if err != nil {
		d.Rollback()
		t.Fatal(err)
	}
	d.AddEdge(target, root)
	newNodes, edgeAdds, _ := d.ChangesSince(0)
	dr, induced, err := tr.TranslateInsert(edgeAdds, newNodes)
	if err != nil {
		d.Rollback()
		t.Fatalf("TranslateInsert: %v", err)
	}
	// Expect H + CU + F templates.
	tables := map[string]int{}
	for _, m := range dr {
		tables[m.Table]++
	}
	if tables["H"] != 1 || tables["CU"] != 1 || tables["F"] != 1 {
		t.Fatalf("ΔR tables = %v (%v)", tables, dr)
	}
	// The F row induces one item under the new info node.
	if len(induced) != 1 || induced[0].ChildType != "item" {
		t.Fatalf("induced = %v", induced)
	}
	if err := syn.DB.Apply(dr); err != nil {
		t.Fatal(err)
	}
	for _, ie := range induced {
		croot, err := syn.ATG.PublishSubtree(d, syn.DB, ie.ChildType, ie.Attr)
		if err != nil {
			t.Fatal(err)
		}
		d.AddEdge(ie.Parent, croot)
	}
	d.Commit()
	fresh, err := syn.ATG.PublishDAG(syn.DB)
	if err != nil {
		t.Fatal(err)
	}
	if err := dagsEquivalent(d, fresh); err != nil {
		t.Fatalf("ΔX(T) != σ(ΔR(I)): %v", err)
	}
	// The CU template's c5 column must not be 0 (that would surface the
	// new C at the top level)... unless the root rule reads table C, which
	// it does — CU and C are separate tables here, so no constraint ties
	// them; the consistency check above is the real arbiter.
}
