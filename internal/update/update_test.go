package update

import (
	"regexp"
	"strings"
	"testing"

	"rxview/internal/dag"
	"rxview/internal/relational"
	"rxview/internal/testkit"
	"rxview/internal/workload"
	"rxview/internal/xpath"
)

func TestParseStatementInsert(t *testing.T) {
	reg := testkit.Must(workload.NewRegistrar())
	op, err := ParseStatement(reg.ATG,
		`insert course(cno="CS9", title="Topics") into //course[cno="CS320"]/prereq`)
	if err != nil {
		t.Fatal(err)
	}
	if op.Kind != OpInsert || op.Type != "course" {
		t.Fatalf("op = %+v", op)
	}
	if op.Attr[0].S != "CS9" || op.Attr[1].S != "Topics" {
		t.Fatalf("attr = %v", op.Attr)
	}
	if op.Path.String() != `//course[cno="CS320"]/prereq` {
		t.Errorf("path = %s", op.Path)
	}
	if !strings.Contains(op.String(), "insert course(CS9, Topics)") {
		t.Errorf("String = %q", op.String())
	}
}

func TestParseStatementFieldsInAnyOrder(t *testing.T) {
	reg := testkit.Must(workload.NewRegistrar())
	op, err := ParseStatement(reg.ATG,
		`insert student(name="Zoe", ssn="S09") into //takenBy`)
	if err != nil {
		t.Fatal(err)
	}
	if op.Attr[0].S != "S09" || op.Attr[1].S != "Zoe" {
		t.Fatalf("attr = %v (declaration order is ssn, name)", op.Attr)
	}
}

func TestParseStatementQuotedComma(t *testing.T) {
	reg := testkit.Must(workload.NewRegistrar())
	op, err := ParseStatement(reg.ATG,
		`insert course(cno="CS9", title="Logic, and more") into //prereq`)
	if err != nil {
		t.Fatal(err)
	}
	if op.Attr[1].S != "Logic, and more" {
		t.Fatalf("attr = %v", op.Attr)
	}
}

func TestParseStatementErrors(t *testing.T) {
	reg := testkit.Must(workload.NewRegistrar())
	for _, stmt := range []string{
		"",
		"upsert course(cno=\"C\") into //x",
		"insert course cno=\"C\" into //x", // no parens
		"insert course(cno=\"C\", title=\"T\") //x",     // missing into
		"insert course(cno=\"C\") into //x",             // missing field
		"insert course(cno=\"C\", nope=\"X\") into //x", // unknown field
		"insert nosuch(a=\"1\") into //x",               // unknown type
		"insert course(cno=\"C\" title) into //x",       // malformed field
		"delete ", // empty path
		"insert course(cno=\"C\", title=\"T\") into ///[x]", // bad path
	} {
		if _, err := ParseStatement(reg.ATG, stmt); err == nil {
			t.Errorf("statement %q accepted", stmt)
		}
	}
}

// TestParseStatementReadsWhatWasWritten holds one row per statement the
// parser used to misread: a quoted ')' taken for the close paren, a repeated
// field whose last value silently won, and keywords matched as prefixes.
func TestParseStatementReadsWhatWasWritten(t *testing.T) {
	reg := testkit.Must(workload.NewRegistrar())
	for _, c := range []struct {
		name, stmt string
		title      string // the accepted title; "" means the statement is refused
	}{
		{"quoted close paren", `insert course(cno="CS9", title="Logic (intro)") into //prereq`, "Logic (intro)"},
		{"field given twice", `insert course(cno="CS999", cno="CS998", title="T") into //prereq`, ""},
		{"delete glued to its path", `deletefoo`, ""},
		{"insert glued to its type", `insertcourse(cno="C", title="T") into //prereq`, ""},
		{"into glued to its path", `insert course(cno="C", title="T") intox`, ""},
	} {
		op, err := ParseStatement(reg.ATG, c.stmt)
		switch {
		case c.title == "" && err == nil:
			t.Errorf("%s: %q accepted as %s", c.name, c.stmt, op)
		case c.title != "" && err != nil:
			t.Errorf("%s: %q refused: %v", c.name, c.stmt, err)
		case c.title != "" && op.Attr[1].S != c.title:
			t.Errorf("%s: title = %q, want %q", c.name, op.Attr[1].S, c.title)
		}
	}
}

// FuzzParseStatement feeds arbitrary statements to the parser over the
// registrar ATG. Oracle: never a panic; an accepted insert names a declared
// type and gives each of its fields exactly once (counted on the statement
// with its quoted strings cut out, not with the parser's scanner); an
// accepted delete has a path.
func FuzzParseStatement(f *testing.F) {
	for _, seed := range []string{
		`insert course(cno="CS9", title="Topics") into //course[cno="CS320"]/prereq`,
		`insert student(name="Zoe", ssn="S09") into //takenBy`,
		`insert course(cno="CS9", title="Logic, and more") into //prereq`,
		`insert student(ssn="S", name="N") into //*[label()=takenBy]`,
		`delete //course[cno="X"]`, `delete .`, "", "delete ",
		"upsert course(cno=\"C\") into //x",
		"insert course cno=\"C\" into //x",
		"insert course(cno=\"C\" title) into //x",
		`insert course(cno="CS9", title="Logic (intro)") into //prereq`,
		`insert course(cno="CS999", cno="CS998", title="T") into //prereq`,
		`deletefoo`, `insertcourse(cno="C", title="T") into //prereq`,
		`insert course(cno="C", title="T") intox`,
	} {
		f.Add(seed)
	}
	reg := testkit.Must(workload.NewRegistrar())
	quoted := regexp.MustCompile(`"[^"]*"|'[^']*'`)
	f.Fuzz(func(t *testing.T, stmt string) {
		op, err := ParseStatement(reg.ATG, stmt)
		if err != nil {
			return
		}
		if op.Path == nil {
			t.Fatalf("%q: accepted without a path", stmt)
		}
		if op.Kind == OpDelete {
			return
		}
		decl, ok := reg.ATG.Attrs[op.Type]
		if !ok || len(op.Attr) != len(decl) {
			t.Fatalf("%q: accepted as %s, not a declared type with its %d fields", stmt, op, len(decl))
		}
		bare := quoted.ReplaceAllString(stmt, `""`)
		open := strings.IndexByte(bare, '(')
		fields := bare[open+1:]
		fields = fields[:strings.IndexByte(fields, ')')]
		count := map[string]int{}
		for _, part := range strings.Split(fields, ",") {
			if name, _, ok := strings.Cut(part, "="); ok {
				count[strings.TrimSpace(name)]++
			}
		}
		for _, fd := range decl {
			if count[fd.Name] != 1 {
				t.Fatalf("%q: accepted with field %s given %d times", stmt, fd.Name, count[fd.Name])
			}
		}
	})
}

func TestValidateAgainstDTDInsert(t *testing.T) {
	reg := testkit.Must(workload.NewRegistrar())
	ok := func(stmt string) *Op {
		t.Helper()
		op, err := ParseStatement(reg.ATG, stmt)
		if err != nil {
			t.Fatal(err)
		}
		return op
	}
	cases := []struct {
		op    *Op
		valid bool
	}{
		{ok(`insert course(cno="X", title="T") into //course/prereq`), true},
		{ok(`insert course(cno="X", title="T") into .`), true},
		{ok(`insert student(ssn="S", name="N") into //takenBy`), true},
		{ok(`insert student(ssn="S", name="N") into //prereq`), false},      // prereq → course*
		{ok(`insert course(cno="X", title="T") into //course`), false},      // course is a sequence
		{ok(`insert course(cno="X", title="T") into //student/ssn`), false}, // PCDATA leaf
	}
	for _, c := range cases {
		err := ValidateAgainstDTD(reg.DTD, c.op)
		if (err == nil) != c.valid {
			t.Errorf("%s: err = %v, want valid=%v", c.op, err, c.valid)
		}
	}
}

func TestValidateAgainstDTDDelete(t *testing.T) {
	reg := testkit.Must(workload.NewRegistrar())
	ok := func(stmt string) *Op {
		t.Helper()
		op, err := ParseStatement(reg.ATG, stmt)
		if err != nil {
			t.Fatal(err)
		}
		return op
	}
	cases := []struct {
		op    *Op
		valid bool
	}{
		{ok(`delete //course[cno="X"]`), true}, // parents db and prereq are both stars
		{ok(`delete //student`), true},
		{ok(`delete //course/cno`), false}, // sequence child
		{ok(`delete //student/ssn`), false},
		{ok(`delete .`), false}, // root
		{ok(`delete //nosuchtype`), false},
	}
	for _, c := range cases {
		err := ValidateAgainstDTD(reg.DTD, c.op)
		if (err == nil) != c.valid {
			t.Errorf("%s: err = %v, want valid=%v", c.op, err, c.valid)
		}
	}
}

func TestValidateLabelFilterNarrowsTypes(t *testing.T) {
	reg := testkit.Must(workload.NewRegistrar())
	// //*[label()=takenBy] reaches only takenBy: inserting a student there
	// is fine even though //* alone would reach illegal types.
	op, err := ParseStatement(reg.ATG, `insert student(ssn="S", name="N") into //*[label()=takenBy]`)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateAgainstDTD(reg.DTD, op); err != nil {
		t.Errorf("label-narrowed insert rejected: %v", err)
	}
	op2, _ := ParseStatement(reg.ATG, `insert student(ssn="S", name="N") into //*`)
	if err := ValidateAgainstDTD(reg.DTD, op2); err == nil {
		t.Error("//* insert should be rejected (reaches non-star types)")
	}
}

func TestXinsertRequiresTransaction(t *testing.T) {
	reg := testkit.Must(workload.NewRegistrar())
	d, err := reg.ATG.PublishDAG(reg.DB)
	if err != nil {
		t.Fatal(err)
	}
	err = Xinsert(reg.ATG, d, reg.DB, nil, "course",
		relational.Tuple{relational.Str("X"), relational.Str("T")})
	if err == nil || !strings.Contains(err.Error(), "transaction") {
		t.Errorf("err = %v", err)
	}
}

func TestXinsertConnectsAllTargets(t *testing.T) {
	reg := testkit.Must(workload.NewRegistrar())
	d, err := reg.ATG.PublishDAG(reg.DB)
	if err != nil {
		t.Fatal(err)
	}
	pre650, _ := d.Lookup("prereq", relational.Tuple{relational.Str("CS650")})
	pre240, _ := d.Lookup("prereq", relational.Tuple{relational.Str("CS240")})
	d.Begin()
	defer d.Rollback()
	attr := relational.Tuple{relational.Str("CS700"), relational.Str("Research")}
	if err := Xinsert(reg.ATG, d, reg.DB, []dag.NodeID{pre650, pre240}, "course", attr); err != nil {
		t.Fatal(err)
	}
	// Skeleton: course + cno + title + prereq + takenBy = 5 new nodes;
	// edges: 4 internal + 2 connections.
	var nodes, edges int
	for _, op := range d.DeltaSince(0) {
		switch op.Kind {
		case dag.DeltaNodeAdd:
			nodes++
		case dag.DeltaEdgeAdd:
			edges++
		}
	}
	if nodes != 5 {
		t.Errorf("new nodes = %d", nodes)
	}
	if edges != 6 {
		t.Errorf("ΔV inserts = %d", edges)
	}
	root, _ := d.Lookup("course", attr)
	if !d.HasEdge(pre650, root) || !d.HasEdge(pre240, root) {
		t.Error("connection edges missing")
	}
}

func TestXinsertRejectsCycle(t *testing.T) {
	reg := testkit.Must(workload.NewRegistrar())
	d, err := reg.ATG.PublishDAG(reg.DB)
	if err != nil {
		t.Fatal(err)
	}
	// Inserting CS650 under its own descendant prereq(CS240) would fold
	// the view into a cycle.
	pre240, _ := d.Lookup("prereq", relational.Tuple{relational.Str("CS240")})
	d.Begin()
	defer d.Rollback()
	err = Xinsert(reg.ATG, d, reg.DB, []dag.NodeID{pre240}, "course",
		relational.Tuple{relational.Str("CS650"), relational.Str("Advanced Topics")})
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("err = %v, want cycle rejection", err)
	}
}

func TestOpKindString(t *testing.T) {
	if OpInsert.String() != "insert" || OpDelete.String() != "delete" {
		t.Error("OpKind strings")
	}
	var p *xpath.Path
	_ = p
}
