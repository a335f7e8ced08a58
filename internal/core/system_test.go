package core

import (
	"errors"
	"strings"
	"testing"

	"rxview/internal/relational"
	"rxview/internal/testkit"
	"rxview/internal/update"
	"rxview/internal/workload"
	"rxview/internal/xpath"
)

func openRegistrar(t testing.TB, opts Options) *System {
	t.Helper()
	reg := testkit.Must(workload.NewRegistrar())
	s, err := Open(reg.ATG, reg.DB, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestOpenAndQuery(t *testing.T) {
	s := openRegistrar(t, Options{})
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	got, err := selectPath(s, `//course[cno="CS320"]`)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("CS320 query = %v", got)
	}
	if _, err := selectPath(s, "///["); err == nil {
		t.Error("bad path accepted")
	}
	st := s.Stats()
	if st.Nodes == 0 || st.Edges == 0 || st.TreeSize <= float64(st.Nodes) {
		t.Errorf("stats = %+v", st)
	}
	if !strings.Contains(st.String(), "nodes=") {
		t.Error("Stats.String")
	}
}

func TestExample1InsertSideEffectFlow(t *testing.T) {
	// The paper's ΔX: insert CS240 into course[cno=CS650]//course[cno=CS320]
	// /prereq. The prereq node of CS320 is shared (top-level CS320 and the
	// copy below CS650): the update must be flagged, then succeed with
	// ForceSideEffects under the revised semantics.
	s := openRegistrar(t, Options{})
	stmt := `insert course(cno="CS240", title="Algorithms") into course[cno="CS650"]//course[cno="CS320"]/prereq`
	// CS240 is already a prereq of CS320, so make the example meaningful:
	// first remove that fact everywhere.
	if _, err := s.Execute(`delete //course[cno="CS320"]/prereq/course[cno="CS240"]`); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}

	_, err := s.Execute(stmt)
	var se *SideEffectError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want SideEffectError", err)
	}
	if !IsSideEffect(err) {
		t.Error("IsSideEffect")
	}

	s.opts.ForceSideEffects = true
	rep, err := s.Execute(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Applied || !rep.SideEffects {
		t.Fatalf("report = %+v", rep)
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// The new prereq tuple must be in the database.
	if _, ok := s.DB.Rel("prereq").LookupKey(relational.Tuple{relational.Str("CS320"), relational.Str("CS240")}); !ok {
		t.Error("prereq(CS320, CS240) missing after insert")
	}
}

func TestExample5DeleteFlow(t *testing.T) {
	// ΔX1 = delete //course[cno=CS320]//student[sid... (our fixture keys
	// students by ssn): the enroll tuple is removed, the student survives.
	s := openRegistrar(t, Options{})
	rep, err := s.Execute(`delete //course[cno="CS320"]//student[ssn="S02"]`)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Applied || rep.EP != 1 || len(rep.DR) != 1 || rep.DR[0].Table != "enroll" {
		t.Fatalf("report = %+v", rep)
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// S02 still enrolled in CS650.
	got, err := selectPath(s, `//student[ssn="S02"]`)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Error("S02 should survive (still takes CS650)")
	}

	// ΔX2 = delete //student[ssn=S02] everywhere: now the student node is
	// unreachable and garbage collected; translation deletes the student
	// row (covers both edges).
	rep, err = s.Execute(`delete //student[ssn="S02"]`)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Removed == 0 {
		t.Errorf("expected garbage-collected nodes, report = %+v", rep)
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if got, _ := selectPath(s, `//student[ssn="S02"]`); len(got) != 0 {
		t.Error("S02 still visible")
	}
}

func TestDeleteSharedSubtreeKeepsSharedChildren(t *testing.T) {
	// Delete CS320 from CS650's prereq list only — side effect (the
	// top-level CS320 occurrence disappears too? No: removing the EDGE
	// prereq(CS650)→CS320 affects only that list; the top-level CS320
	// remains). The relational translation deletes prereq(CS650, CS320).
	s := openRegistrar(t, Options{ForceSideEffects: true})
	rep, err := s.Execute(`delete course[cno="CS650"]/prereq/course[cno="CS320"]`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.DR) != 1 || rep.DR[0].Table != "prereq" {
		t.Fatalf("ΔR = %v", rep.DR)
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// CS320 still exists top-level; CS240 still its prereq.
	if got, _ := selectPath(s, `course[cno="CS320"]/prereq/course`); len(got) != 1 {
		t.Error("CS320 lost its own prereq")
	}
}

func TestDTDValidationRejects(t *testing.T) {
	s := openRegistrar(t, Options{})
	// Inserting a student under prereq violates prereq → course*.
	_, err := s.Execute(`insert student(ssn="S09", name="Zoe") into //course[cno="CS320"]/prereq`)
	if err == nil || !strings.Contains(err.Error(), "DTD") {
		t.Errorf("err = %v, want DTD violation", err)
	}
	// Deleting a cno (sequence child) is invalid.
	_, err = s.Execute(`delete //course/cno`)
	if err == nil || !strings.Contains(err.Error(), "DTD") {
		t.Errorf("err = %v, want DTD violation", err)
	}
	// Deleting the root is invalid.
	_, err = s.Execute(`delete .`)
	if err == nil {
		t.Error("root deletion accepted")
	}
}

func TestNoMatchIsNoOp(t *testing.T) {
	s := openRegistrar(t, Options{})
	rep, err := s.Execute(`delete //course[cno="CS999"]`)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Applied {
		t.Error("no-op applied")
	}
	rep, err = s.Execute(`insert course(cno="CS888", title="X") into //course[cno="CS999"]/prereq`)
	if err != nil || rep.Applied {
		t.Errorf("rep=%+v err=%v", rep, err)
	}
}

func TestInsertExistingEdgeIsNoOp(t *testing.T) {
	s := openRegistrar(t, Options{ForceSideEffects: true})
	// CS240 is already a prereq of CS320 everywhere.
	rep, err := s.Execute(`insert course(cno="CS240", title="Algorithms") into //course[cno="CS320"]/prereq`)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Applied {
		t.Errorf("duplicate edge insert applied: %+v", rep)
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestRejectedInsertLeavesStateIntact(t *testing.T) {
	s := openRegistrar(t, Options{ForceSideEffects: true})
	before := s.Stats()
	// EE100 exists with dept=EE: it cannot appear at the top level.
	_, err := s.Execute(`insert course(cno="EE100", title="Circuits") into .`)
	if !IsRejected(err) {
		t.Fatalf("err = %v, want rejection", err)
	}
	after := s.Stats()
	if before != after {
		t.Errorf("state changed by rejected update: %+v vs %+v", before, after)
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateSequenceKeepsInvariant(t *testing.T) {
	// A scripted mixed sequence; after every update the full invariant
	// ΔX(T) = σ(ΔR(I)) and index integrity must hold.
	s := openRegistrar(t, Options{ForceSideEffects: true})
	// Note the order: inserting CS490 at the top level first forces
	// dept=CS; the reverse order would (correctly) be rejected, because
	// the first insert pins dept to a fresh non-CS value and the top-level
	// edge then cannot be produced.
	script := []string{
		`insert student(ssn="S03", name="Cid") into //course[cno="CS240"]/takenBy`,
		`insert course(cno="CS490", title="Compilers") into .`,
		`insert course(cno="CS490", title="Compilers") into //course[cno="CS650"]/prereq`,
		`delete //course[cno="CS320"]/prereq/course[cno="CS240"]`,
		`insert course(cno="CS100", title="Intro") into //course[cno="CS490"]/prereq`,
		`delete //student[ssn="S02"]`,
		`delete //course[cno="CS650"]`,
	}
	for i, stmt := range script {
		rep, err := s.Execute(stmt)
		if err != nil {
			t.Fatalf("step %d (%s): %v", i, stmt, err)
		}
		if !rep.Applied {
			t.Fatalf("step %d (%s) was a no-op", i, stmt)
		}
		if err := s.CheckConsistency(); err != nil {
			t.Fatalf("step %d (%s): %v", i, stmt, err)
		}
	}
}

func TestXMLSerialization(t *testing.T) {
	s := openRegistrar(t, Options{})
	xml, err := s.XML(100000)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"<db>", "<course>", "<cno>CS650</cno>"} {
		if !strings.Contains(xml, want) {
			t.Errorf("XML missing %q", want)
		}
	}
	if _, err := s.XML(2); err == nil {
		t.Error("budget not enforced")
	}
}

func TestApplyStatementErrors(t *testing.T) {
	s := openRegistrar(t, Options{})
	for _, stmt := range []string{
		"",
		"frobnicate //x",
		"insert course(cno=1) into //x", // missing title
		"insert nosuch(x=1) into //x",   // unknown type
		"delete //course[",              // bad path
		"insert course(cno=\"C1\", title=\"T\") into", // missing path
	} {
		if _, err := s.Execute(stmt); err == nil {
			t.Errorf("statement %q accepted", stmt)
		}
	}
}

func TestOpParsingRoundTrip(t *testing.T) {
	s := openRegistrar(t, Options{})
	op, err := update.ParseStatement(s.ATG, `insert course(cno="CS9", title="T9") into //course[cno="CS320"]/prereq`)
	if err != nil {
		t.Fatal(err)
	}
	if op.Kind != update.OpInsert || op.Type != "course" || op.Attr[0].S != "CS9" {
		t.Errorf("op = %+v", op)
	}
	if !strings.Contains(op.String(), "insert course") {
		t.Error("op.String")
	}
	del, err := update.ParseStatement(s.ATG, "delete //course")
	if err != nil {
		t.Fatal(err)
	}
	if del.Kind != update.OpDelete || del.String() != "delete //course" {
		t.Errorf("del = %+v", del)
	}
}

func TestTypedInsertDeleteAPI(t *testing.T) {
	// The typed Insert/Delete entry points (not just Execute).
	s := openRegistrar(t, Options{ForceSideEffects: true})
	rep, err := s.Insert(`//course[cno="CS650"]/takenBy`, "student",
		relational.Tuple{relational.Str("S42"), relational.Str("Ada")})
	if err != nil || !rep.Applied {
		t.Fatalf("Insert: %+v %v", rep, err)
	}
	if rep.Timings.Total() <= 0 {
		t.Error("Timings.Total")
	}
	rep, err = s.Delete(`//student[ssn="S42"]`)
	if err != nil || !rep.Applied {
		t.Fatalf("Delete: %+v %v", rep, err)
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// Path errors surface from both.
	if _, err := s.Insert("[[", "student", nil); err == nil {
		t.Error("bad insert path accepted")
	}
	if _, err := s.Delete("[["); err == nil {
		t.Error("bad delete path accepted")
	}
}

func TestEvalAPI(t *testing.T) {
	s := openRegistrar(t, Options{})
	res, err := s.Eval(xpath.MustParse(`//course[cno="CS320"]`))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 1 {
		t.Errorf("selected = %v", res.Selected)
	}
}

func TestViewRoundTripThroughXMLParser(t *testing.T) {
	// Serialize the view, parse it back, and compare with a direct unfold:
	// the textual representation is faithful.
	s := openRegistrar(t, Options{})
	xmlStr, err := s.XML(100000)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := testkit.ParseXML(xmlStr)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := s.DAG.Unfold(s.DAG.Root(), s.ATG.Text(s.DAG), 100000)
	if err != nil {
		t.Fatal(err)
	}
	if !testkit.EqualTrees(parsed, direct) {
		t.Error("parsed view differs from the direct unfold")
	}
}
