package atg

import (
	"strings"
	"testing"

	"rxview/internal/dag"
	"rxview/internal/dtd"
	"rxview/internal/relational"
	"rxview/internal/testkit"
)

// Registrar fixture: the σ0 ATG of Fig.2 over the schema R0 of Example 1.

func registrarSchema() *relational.Schema {
	return testkit.Must(relational.NewSchema(
		testkit.Must(relational.NewTableSchema("course", []relational.Column{
			{Name: "cno", Type: relational.KindString},
			{Name: "title", Type: relational.KindString},
			{Name: "dept", Type: relational.KindString},
		}, "cno")),
		testkit.Must(relational.NewTableSchema("student", []relational.Column{
			{Name: "ssn", Type: relational.KindString},
			{Name: "name", Type: relational.KindString},
		}, "ssn")),
		testkit.Must(relational.NewTableSchema("enroll", []relational.Column{
			{Name: "ssn", Type: relational.KindString},
			{Name: "cno", Type: relational.KindString},
		}, "ssn", "cno")),
		testkit.Must(relational.NewTableSchema("prereq", []relational.Column{
			{Name: "cno1", Type: relational.KindString},
			{Name: "cno2", Type: relational.KindString},
		}, "cno1", "cno2")),
	))
}

func registrarDTD() *dtd.DTD {
	return testkit.Must(dtd.New("db", map[string]dtd.Production{
		"db":      {Kind: dtd.Star, Children: []string{"course"}},
		"course":  {Kind: dtd.Seq, Children: []string{"cno", "title", "prereq", "takenBy"}},
		"prereq":  {Kind: dtd.Star, Children: []string{"course"}},
		"takenBy": {Kind: dtd.Star, Children: []string{"student"}},
		"student": {Kind: dtd.Seq, Children: []string{"ssn", "name"}},
		"cno":     {Kind: dtd.PCData},
		"title":   {Kind: dtd.PCData},
		"ssn":     {Kind: dtd.PCData},
		"name":    {Kind: dtd.PCData},
	}))
}

// registrarATG builds σ0 (Fig.2). $course = (cno, title); $prereq = (cno);
// $takenBy = (cno); $student = (ssn, name).
func registrarATG(t testing.TB) *Compiled {
	t.Helper()
	d := registrarDTD()
	s := registrarSchema()
	str := relational.KindString

	qDBCourse := &relational.SPJ{
		Name: "Qdb_course",
		From: []relational.TableRef{{Table: "course"}},
		Where: []relational.EqPred{
			{Left: relational.Col(0, 2), Right: relational.Const(relational.Str("CS"))},
		},
		Selects: []relational.SelectItem{
			{As: "cno", Src: relational.Col(0, 0)},
			{As: "title", Src: relational.Col(0, 1)},
		},
	}
	qPrereqCourse := &relational.SPJ{
		Name:    "Qprereq_course",
		NParams: 1,
		From:    []relational.TableRef{{Table: "prereq"}, {Table: "course"}},
		Where: []relational.EqPred{
			{Left: relational.Col(0, 0), Right: relational.Param(0)},
			{Left: relational.Col(0, 1), Right: relational.Col(1, 0)},
		},
		Selects: []relational.SelectItem{
			{As: "cno", Src: relational.Col(1, 0)},
			{As: "title", Src: relational.Col(1, 1)},
		},
	}
	qTakenByStudent := &relational.SPJ{
		Name:    "QtakenBy_student",
		NParams: 1,
		From:    []relational.TableRef{{Table: "enroll"}, {Table: "student"}},
		Where: []relational.EqPred{
			{Left: relational.Col(0, 1), Right: relational.Param(0)}, // e.cno = $takenBy
			{Left: relational.Col(0, 0), Right: relational.Col(1, 0)},
		},
		Selects: []relational.SelectItem{
			{As: "ssn", Src: relational.Col(1, 0)},
			{As: "name", Src: relational.Col(1, 1)},
		},
	}

	return testkit.Must(NewBuilder(d, s).
		Attr("course", Field("cno", str), Field("title", str)).
		Attr("prereq", Field("cno", str)).
		Attr("takenBy", Field("cno", str)).
		Attr("student", Field("ssn", str), Field("name", str)).
		Attr("cno", Field("v", str)).
		Attr("title", Field("v", str)).
		Attr("ssn", Field("v", str)).
		Attr("name", Field("v", str)).
		QueryRule("db", "course", qDBCourse).
		ProjRule("course", "cno", FromParent(0)).
		ProjRule("course", "title", FromParent(1)).
		ProjRule("course", "prereq", FromParent(0)).
		ProjRule("course", "takenBy", FromParent(0)).
		QueryRule("prereq", "course", qPrereqCourse).
		QueryRule("takenBy", "student", qTakenByStudent).
		ProjRule("student", "ssn", FromParent(0)).
		ProjRule("student", "name", FromParent(1)).
		Build())
}

func registrarDB(t testing.TB) *relational.Database {
	t.Helper()
	db := relational.NewDatabase(registrarSchema())
	str := relational.Str
	testkit.Insert(db.Rel("course"), str("CS650"), str("Advanced Topics"), str("CS"))
	testkit.Insert(db.Rel("course"), str("CS320"), str("Databases"), str("CS"))
	testkit.Insert(db.Rel("course"), str("CS240"), str("Algorithms"), str("CS"))
	testkit.Insert(db.Rel("course"), str("EE100"), str("Circuits"), str("EE"))
	testkit.Insert(db.Rel("prereq"), str("CS650"), str("CS320"))
	testkit.Insert(db.Rel("prereq"), str("CS320"), str("CS240"))
	testkit.Insert(db.Rel("student"), str("S01"), str("Ann"))
	testkit.Insert(db.Rel("student"), str("S02"), str("Bob"))
	testkit.Insert(db.Rel("enroll"), str("S01"), str("CS650"))
	testkit.Insert(db.Rel("enroll"), str("S02"), str("CS650"))
	testkit.Insert(db.Rel("enroll"), str("S02"), str("CS320"))
	return db
}

func TestPublishRegistrarDAG(t *testing.T) {
	c := registrarATG(t)
	db := registrarDB(t)
	d, err := c.PublishDAG(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := testkit.CheckAcyclic(d); err != nil {
		t.Fatal(err)
	}
	// 3 CS courses, each once (shared): CS320 appears top-level and under
	// CS650's prereq; CS240 top-level and under CS320's prereq.
	if got := len(d.NodesOfType("course")); got != 3 {
		t.Errorf("course nodes = %d", got)
	}
	c320, ok := d.Lookup("course", relational.Tuple{relational.Str("CS320"), relational.Str("Databases")})
	if !ok {
		t.Fatal("CS320 node missing")
	}
	if got := len(d.Parents(c320)); got != 2 {
		t.Errorf("CS320 parents = %d, want db + prereq(CS650)", got)
	}
	// Student S02 is shared by takenBy(CS650) and takenBy(CS320).
	s02, ok := d.Lookup("student", relational.Tuple{relational.Str("S02"), relational.Str("Bob")})
	if !ok {
		t.Fatal("S02 node missing")
	}
	if got := len(d.Parents(s02)); got != 2 {
		t.Errorf("S02 parents = %d", got)
	}
	// The EE course is filtered out.
	if _, ok := d.Lookup("course", relational.Tuple{relational.Str("EE100"), relational.Str("Circuits")}); ok {
		t.Error("EE100 should be filtered out by dept='CS'")
	}
	// Unfolded tree has more nodes than the DAG (compression).
	if ts := dag.TreeSize(d); int(ts) <= d.NumNodes() {
		t.Errorf("tree %v should exceed DAG %d", ts, d.NumNodes())
	}
}

func TestPublishedTreeShape(t *testing.T) {
	c := registrarATG(t)
	db := registrarDB(t)
	d, err := c.PublishDAG(db)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := d.Unfold(d.Root(), c.Text(d), 100000)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := tree.WriteXML(&b); err != nil {
		t.Fatal(err)
	}
	xml := b.String()
	for _, want := range []string{
		"<cno>CS650</cno>", "<cno>CS320</cno>", "<cno>CS240</cno>",
		"<title>Databases</title>", "<ssn>S02</ssn>", "<name>Bob</name>",
		"<prereq>", "<takenBy>",
	} {
		if !strings.Contains(xml, want) {
			t.Errorf("tree missing %q", want)
		}
	}
	if strings.Contains(xml, "EE100") {
		t.Error("EE course leaked into the view")
	}
	// CS240 occurs at top level and under CS320's prereq, which itself
	// occurs twice (top level + under CS650): 3 occurrences of CS240.
	if got := strings.Count(xml, "<cno>CS240</cno>"); got != 3 {
		t.Errorf("CS240 occurrences = %d, want 3", got)
	}
}

func TestPublishSubtreeReusesExisting(t *testing.T) {
	c := registrarATG(t)
	db := registrarDB(t)
	d, err := c.PublishDAG(db)
	if err != nil {
		t.Fatal(err)
	}
	before := d.NumNodes()
	// Publishing an existing course is a no-op.
	id, err := c.PublishSubtree(d, db, "course",
		relational.Tuple{relational.Str("CS240"), relational.Str("Algorithms")})
	if err != nil {
		t.Fatal(err)
	}
	if d.NumNodes() != before {
		t.Errorf("nodes grew from %d to %d", before, d.NumNodes())
	}
	if got, _ := d.Lookup("course", relational.Tuple{relational.Str("CS240"), relational.Str("Algorithms")}); got != id {
		t.Error("wrong node returned")
	}
	// Publishing a new course creates its skeleton (cno, title, prereq,
	// takenBy) and links to existing children via the database.
	testkit.Insert(db.Rel("course"), relational.Str("CS500"), relational.Str("Systems"), relational.Str("CS"))
	testkit.Insert(db.Rel("prereq"), relational.Str("CS500"), relational.Str("CS240"))
	id, err = c.PublishSubtree(d, db, "course",
		relational.Tuple{relational.Str("CS500"), relational.Str("Systems")})
	if err != nil {
		t.Fatal(err)
	}
	// New nodes: course + cno + title + prereq + takenBy = 5 (CS240 reused).
	if got := d.NumNodes() - before; got != 5 {
		t.Errorf("new nodes = %d, want 5", got)
	}
	pr, _ := d.Lookup("prereq", relational.Tuple{relational.Str("CS500")})
	c240, _ := d.Lookup("course", relational.Tuple{relational.Str("CS240"), relational.Str("Algorithms")})
	if !d.HasEdge(pr, c240) {
		t.Error("CS500's prereq should link to existing CS240")
	}
	_ = id
}

func TestPublishDetectsCyclicData(t *testing.T) {
	c := registrarATG(t)
	db := registrarDB(t)
	// CS240 -> CS650 closes a prereq cycle.
	testkit.Insert(db.Rel("prereq"), relational.Str("CS240"), relational.Str("CS650"))
	if _, err := c.PublishDAG(db); err == nil || !strings.Contains(err.Error(), "cyclic") {
		t.Errorf("cycle not detected: %v", err)
	}
}

func TestTextFunction(t *testing.T) {
	c := registrarATG(t)
	db := registrarDB(t)
	d, _ := c.PublishDAG(db)
	text := c.Text(d)
	cno, ok := d.Lookup("cno", relational.Tuple{relational.Str("CS650")})
	if !ok {
		t.Fatal("cno node missing")
	}
	if s, ok := text(cno); !ok || s != "CS650" {
		t.Errorf("text(cno) = %q, %v", s, ok)
	}
	course, _ := d.Lookup("course", relational.Tuple{relational.Str("CS650"), relational.Str("Advanced Topics")})
	if _, ok := text(course); ok {
		t.Error("non-PCDATA node has text")
	}
}

// TestTextEqualsMatchesText pins the one definition of "the text of v equals
// s": the typed predicate agrees with rendering through Text for every value
// kind a text component can hold, non-canonical numerals included.
func TestTextEqualsMatchesText(t *testing.T) {
	c := registrarATG(t)
	d := dag.New("db")
	values := []relational.Value{
		relational.Int(7), relational.Int(0), relational.Int(-7), relational.Int(1 << 40),
		relational.Str("7"), relational.Str("007"), relational.Str(""), relational.Str("true"),
		relational.Str("NULL"), relational.Str("CS650"),
		relational.Bool(true), relational.Bool(false), relational.Null(), relational.Var(3),
	}
	var nodes []dag.NodeID
	for i, v := range values {
		id, _ := d.AddNode("cno", relational.Tuple{v, relational.Int(int64(i))})
		nodes = append(nodes, id)
	}
	empty, _ := d.AddNode("cno", nil) // a text component the tuple does not have
	nodes = append(nodes, empty)
	consts := []string{
		"7", "007", "+7", "7.0", " 7", "0", "-0", "00", "-7", "1099511627776", "9223372036854775808",
		"", "true", "TRUE", "1", "false", "NULL", "null", "?z3", "CS650", "cs650",
	}
	text, textEq := c.Text(d), c.TextEquals(d)
	for _, s := range consts {
		eq := textEq("cno", s)
		for _, id := range nodes {
			got, ok := text(id)
			if want := ok && got == s; eq(id) != want {
				t.Errorf("TextEquals(cno, %q)(%v) = %v, Text renders (%q, %v)", s, d.Attr(id), eq(id), got, ok)
			}
		}
	}
	// A type without text equals nothing, whatever its attribute holds.
	course, _ := d.AddNode("course", relational.Tuple{relational.Str("CS650")})
	if textEq("course", "CS650")(course) {
		t.Error("a non-PCDATA type compared equal")
	}
	if _, ok := text(course); ok {
		t.Error("a non-PCDATA type has text")
	}
}

func TestSourceTuples(t *testing.T) {
	c := registrarATG(t)
	r := c.Rule("prereq", "course")
	if r == nil || r.Prov == nil {
		t.Fatal("prereq→course rule missing provenance")
	}
	srcs := r.SourceTuples(
		relational.Tuple{relational.Str("CS650")},                              // $prereq
		relational.Tuple{relational.Str("CS320"), relational.Str("Databases")}) // $course
	if len(srcs) != 2 {
		t.Fatalf("sources = %v", srcs)
	}
	if srcs[0].Table != "prereq" || srcs[0].Key[0].S != "CS650" || srcs[0].Key[1].S != "CS320" {
		t.Errorf("prereq source = %v", srcs[0])
	}
	if srcs[1].Table != "course" || srcs[1].Key[0].S != "CS320" {
		t.Errorf("course source = %v", srcs[1])
	}
	if srcs[0].Encode() == srcs[1].Encode() {
		t.Error("Encode not distinguishing")
	}
}

// TestSourceKeyAppendForm: the three ways to a source key — the string form,
// the append form, and the rule's, which skips building the SourceKey — are
// the same bytes: the table, a zero byte, the key tuple's encoding.
func TestSourceKeyAppendForm(t *testing.T) {
	c := registrarATG(t)
	for _, r := range c.QueryRules() {
		for _, attrs := range [][2]relational.Tuple{
			{{relational.Str("CS650")}, {relational.Str("CS320"), relational.Str("Databases")}},
			{{relational.Str("")}, {relational.Null(), relational.Str("")}},
		} {
			parent, child := attrs[0], attrs[1]
			if r.Parent == "db" {
				parent = nil
			}
			for i, s := range r.SourceTuples(parent, child) {
				want := s.Table + "\x00" + s.Key.Encode()
				if got := s.Encode(); got != want {
					t.Errorf("%s: Encode() = %q, want %q", s, got, want)
				}
				if got := string(s.AppendKey([]byte("pre"))); got != "pre"+want {
					t.Errorf("%s: AppendKey behind a prefix = %q, want %q", s, got, "pre"+want)
				}
				if got := string(r.AppendSourceKey(nil, i, parent, child)); got != want {
					t.Errorf("%s→%s source %d: AppendSourceKey = %q, want %q", r.Parent, r.Child, i, got, want)
				}
			}
		}
	}
}

func TestQueryRulesEnumeration(t *testing.T) {
	c := registrarATG(t)
	qr := c.QueryRules()
	if len(qr) != 3 { // db→course, prereq→course, takenBy→student
		t.Errorf("query rules = %d", len(qr))
	}
}

func TestCompileErrors(t *testing.T) {
	d := registrarDTD()
	s := registrarSchema()
	str := relational.KindString

	// Missing rule for a child.
	if _, err := NewBuilder(d, s).Build(); err == nil {
		t.Error("missing rules accepted")
	}
	// Root with attribute.
	b := NewBuilder(d, s).Attr("db", Field("x", str))
	if _, err := b.Build(); err == nil {
		t.Error("root attribute accepted")
	}
	// Non-key-preserving rule: the query joins enroll but the enroll key
	// (ssn, cno) is not derivable (no param binding for cno).
	dtd2 := testkit.Must(dtd.New("db", map[string]dtd.Production{
		"db": {Kind: dtd.Star, Children: []string{"s"}},
		"s":  {Kind: dtd.PCData},
	}))
	broken := &relational.SPJ{
		Name: "broken",
		From: []relational.TableRef{{Table: "enroll"}, {Table: "student"}},
		Where: []relational.EqPred{
			{Left: relational.Col(0, 0), Right: relational.Col(1, 0)},
		},
		Selects: []relational.SelectItem{{As: "ssn", Src: relational.Col(1, 0)}},
	}
	_, err := NewBuilder(dtd2, s).
		Attr("s", Field("ssn", str)).
		QueryRule("db", "s", broken).
		Build()
	if err == nil || !strings.Contains(err.Error(), "key preserving") {
		t.Errorf("key preservation not enforced: %v", err)
	}
	// Arity mismatches.
	okQ := &relational.SPJ{
		Name:    "ok",
		From:    []relational.TableRef{{Table: "student"}},
		Selects: []relational.SelectItem{{As: "ssn", Src: relational.Col(0, 0)}},
	}
	_, err = NewBuilder(dtd2, s).
		Attr("s", Field("a", str), Field("b", str)). // 2 fields, query yields 1
		QueryRule("db", "s", okQ).
		Build()
	if err == nil {
		t.Error("projection arity mismatch accepted")
	}
	// PCDATA type without attribute.
	_, err = NewBuilder(dtd2, s).
		QueryRule("db", "s", okQ).
		Build()
	if err == nil {
		t.Error("PCDATA without attr accepted")
	}
	// Duplicate declarations.
	b2 := NewBuilder(dtd2, s).Attr("s", Field("v", str)).Attr("s", Field("v", str))
	if _, err := b2.QueryRule("db", "s", okQ).Build(); err == nil {
		t.Error("duplicate attr accepted")
	}
}

func TestProjRuleValidation(t *testing.T) {
	d := testkit.Must(dtd.New("db", map[string]dtd.Production{
		"db": {Kind: dtd.Star, Children: []string{"a"}},
		"a":  {Kind: dtd.Seq, Children: []string{"b"}},
		"b":  {Kind: dtd.PCData},
	}))
	s := registrarSchema()
	str := relational.KindString
	q := &relational.SPJ{
		Name:    "q",
		From:    []relational.TableRef{{Table: "student"}},
		Selects: []relational.SelectItem{{As: "ssn", Src: relational.Col(0, 0)}},
	}
	// Out-of-range parent index in projection.
	_, err := NewBuilder(d, s).
		Attr("a", Field("k", str)).
		Attr("b", Field("v", str)).
		QueryRule("db", "a", q).
		ProjRule("a", "b", FromParent(5)).
		Build()
	if err == nil {
		t.Error("out-of-range projection accepted")
	}
	// Query rule where a projection rule is required.
	_, err = NewBuilder(d, s).
		Attr("a", Field("k", str)).
		Attr("b", Field("v", str)).
		QueryRule("db", "a", q).
		QueryRule("a", "b", q).
		Build()
	if err == nil {
		t.Error("query rule for sequence child accepted")
	}
	// Constant projection works.
	c, err := NewBuilder(d, s).
		Attr("a", Field("k", str)).
		Attr("b", Field("v", str)).
		QueryRule("db", "a", q).
		ProjRule("a", "b", ConstItem(relational.Str("fixed"))).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	db := relational.NewDatabase(s)
	testkit.Insert(db.Rel("student"), relational.Str("S01"), relational.Str("Ann"))
	dg, err := c.PublishDAG(db)
	if err != nil {
		t.Fatal(err)
	}
	b, ok := dg.Lookup("b", relational.Tuple{relational.Str("fixed")})
	if !ok {
		t.Fatal("constant-projected child missing")
	}
	if s, ok := c.Text(dg)(b); !ok || s != "fixed" {
		t.Errorf("text = %q", s)
	}
}

func TestAlternationPublish(t *testing.T) {
	d := testkit.Must(dtd.New("db", map[string]dtd.Production{
		"db":   {Kind: dtd.Star, Children: []string{"item"}},
		"item": {Kind: dtd.Alt, Children: []string{"yes", "no"}},
		"yes":  {Kind: dtd.PCData},
		"no":   {Kind: dtd.PCData},
	}))
	s := testkit.Must(relational.NewSchema(
		testkit.Must(relational.NewTableSchema("t", []relational.Column{
			{Name: "k", Type: relational.KindString},
			{Name: "flag", Type: relational.KindString},
		}, "k")),
	))
	str := relational.KindString
	qItems := &relational.SPJ{
		Name:    "items",
		From:    []relational.TableRef{{Table: "t"}},
		Selects: []relational.SelectItem{{As: "k", Src: relational.Col(0, 0)}},
	}
	altQ := func(flag string) *relational.SPJ {
		return &relational.SPJ{
			Name:    "alt_" + flag,
			NParams: 1,
			From:    []relational.TableRef{{Table: "t"}},
			Where: []relational.EqPred{
				{Left: relational.Col(0, 0), Right: relational.Param(0)},
				{Left: relational.Col(0, 1), Right: relational.Const(relational.Str(flag))},
			},
			Selects: []relational.SelectItem{{As: "k", Src: relational.Col(0, 0)}},
		}
	}
	c, err := NewBuilder(d, s).
		Attr("item", Field("k", str)).
		Attr("yes", Field("k", str)).
		Attr("no", Field("k", str)).
		QueryRule("db", "item", qItems).
		QueryRule("item", "yes", altQ("y")).
		QueryRule("item", "no", altQ("n")).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	db := relational.NewDatabase(s)
	testkit.Insert(db.Rel("t"), relational.Str("a"), relational.Str("y"))
	testkit.Insert(db.Rel("t"), relational.Str("b"), relational.Str("n"))
	dg, err := c.PublishDAG(db)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := dg.Lookup("yes", relational.Tuple{relational.Str("a")}); !ok {
		t.Error("alternative yes(a) missing")
	}
	if _, ok := dg.Lookup("no", relational.Tuple{relational.Str("b")}); !ok {
		t.Error("alternative no(b) missing")
	}
	if _, ok := dg.Lookup("no", relational.Tuple{relational.Str("a")}); ok {
		t.Error("wrong alternative produced")
	}
}
