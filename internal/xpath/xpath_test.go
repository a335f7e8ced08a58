package xpath

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"rxview/internal/dag"
	"rxview/internal/relational"
	"rxview/internal/testkit"
)

func TestParseBasics(t *testing.T) {
	cases := []struct {
		in   string
		want string // round-trip rendering
	}{
		{"course", "course"},
		{"/db/course", "db/course"},
		{"//course", "//course"},
		{"course//prereq", "course//prereq"},
		{"*", "*"},
		{".", "."},
		{`course[cno="CS650"]`, `course[cno="CS650"]`},
		{"course[cno=CS650]", `course[cno="CS650"]`},
		{`course[cno='CS650']`, `course[cno="CS650"]`},
		{"a[b and c]", "a[(b and c)]"},
		{"a[b or c]", "a[(b or c)]"},
		{"a[not(b)]", "a[not(b)]"},
		{"a[!b]", "a[not(b)]"},
		{"a[b && c]", "a[(b and c)]"},
		{"a[b || c]", "a[(b or c)]"},
		{"a[label()=course]", "a[label()=course]"},
		{"a[b/c=x]", `a[b/c="x"]`},
		{"a[(b or c) and d]", "a[((b or c) and d)]"},
		{"a[b][c]", "a[b][c]"},
		{`course[cno=CS650]//course[cno=CS320]/prereq`, `course[cno="CS650"]//course[cno="CS320"]/prereq`},
	}
	for _, c := range cases {
		p, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if got := p.String(); got != c.want {
			t.Errorf("Parse(%q).String() = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{
		"", "course[", "course[]", "course[cno=]", "a[b=\"x]", "a]b",
		"a[label()]", "a[label()=]", "a[not(b]", "a[(b]", "course$",
	} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) accepted", in)
		}
	}
}

func TestNormalize(t *testing.T) {
	p := MustParse(`course[cno="CS650"]//course[x][y]/prereq`)
	steps := Normalize(p)
	kinds := make([]StepKind, len(steps))
	for i, s := range steps {
		kinds[i] = s.Kind
	}
	want := []StepKind{StepLabel, StepSelf, StepDescOrSelf, StepLabel, StepSelf, StepLabel}
	if !reflect.DeepEqual(kinds, want) {
		t.Errorf("kinds = %v, want %v", kinds, want)
	}
	// The two filters on the second course step are conjoined.
	if _, ok := steps[4].Filter.(*ExprAnd); !ok {
		t.Errorf("filters not conjoined: %T", steps[4].Filter)
	}
}

func TestLastLabel(t *testing.T) {
	if l, ok := MustParse("a/b/c").LastLabel(); !ok || l != "c" {
		t.Error("LastLabel a/b/c")
	}
	if l, ok := MustParse("a/b[x]").LastLabel(); !ok || l != "b" {
		t.Error("LastLabel with trailing filter")
	}
	if _, ok := MustParse("a/*").LastLabel(); ok {
		t.Error("LastLabel of wildcard")
	}
	if _, ok := MustParse("a//").LastLabel(); ok {
		t.Error("LastLabel of trailing //")
	}
}

// fig1DAG builds (a simplification of) the view of Fig.1 in the paper:
//
//	db ─ course650 ─ cno:CS650, prereq650 ─ course320
//	db ─ course320 ─ cno:CS320, prereq320 ─ course240, takenBy320 ─ studentS02
//	db ─ course240 ─ cno:CS240, takenBy240 ─ studentS02
//
// course320 is shared (top-level and as prereq of CS650), studentS02 is
// shared by two takenBy nodes.
func fig1DAG(t testing.TB) (*dag.DAG, map[string]dag.NodeID, func(dag.NodeID) (string, bool)) {
	t.Helper()
	d := dag.New("db")
	ids := map[string]dag.NodeID{"db": d.Root()}
	texts := map[dag.NodeID]string{}
	mk := func(name, typ string, attr ...relational.Value) dag.NodeID {
		id, _ := d.AddNode(typ, relational.Tuple(attr))
		ids[name] = id
		return id
	}
	mkText := func(name, typ, text string) dag.NodeID {
		id := mk(name, typ, relational.Str(text))
		texts[id] = text
		return id
	}

	c650 := mk("c650", "course", relational.Str("CS650"))
	c320 := mk("c320", "course", relational.Str("CS320"))
	c240 := mk("c240", "course", relational.Str("CS240"))
	d.AddEdge(d.Root(), c650)
	d.AddEdge(d.Root(), c320)
	d.AddEdge(d.Root(), c240)

	cno650 := mkText("cno650", "cno", "CS650")
	cno320 := mkText("cno320", "cno", "CS320")
	cno240 := mkText("cno240", "cno", "CS240")
	pre650 := mk("pre650", "prereq", relational.Str("CS650"))
	pre320 := mk("pre320", "prereq", relational.Str("CS320"))
	tb650 := mk("tb650", "takenBy", relational.Str("CS650"))
	tb320 := mk("tb320", "takenBy", relational.Str("CS320"))
	tb240 := mk("tb240", "takenBy", relational.Str("CS240"))
	d.AddEdge(c650, cno650)
	d.AddEdge(c650, pre650)
	d.AddEdge(c650, tb650)
	d.AddEdge(c320, cno320)
	d.AddEdge(c320, pre320)
	d.AddEdge(c320, tb320)
	d.AddEdge(c240, cno240)
	d.AddEdge(c240, tb240)

	d.AddEdge(pre650, c320) // CS320 shared: top-level + prereq of CS650
	d.AddEdge(pre320, c240) // CS240 shared: top-level + prereq of CS320

	// S02 takes CS650 and CS320; S01 takes CS240. The student S02 subtree
	// is shared by two takenBy parents, neither inside the other.
	s02 := mk("s02", "student", relational.Str("S02"))
	sid02 := mkText("sid02", "sid", "S02")
	d.AddEdge(s02, sid02)
	d.AddEdge(tb650, s02)
	d.AddEdge(tb320, s02)
	s01 := mk("s01", "student", relational.Str("S01"))
	sid01 := mkText("sid01", "sid", "S01")
	d.AddEdge(s01, sid01)
	d.AddEdge(tb240, s01)

	if err := testkit.CheckAcyclic(d); err != nil {
		t.Fatal(err)
	}
	text := func(id dag.NodeID) (string, bool) {
		s, ok := texts[id]
		return s, ok
	}
	return d, ids, text
}

func newEval(t testing.TB, d *dag.DAG, text func(dag.NodeID) (string, bool)) *Evaluator {
	t.Helper()
	return &Evaluator{D: d, Text: text}
}

func TestEvalFig1Selection(t *testing.T) {
	d, ids, text := fig1DAG(t)
	ev := newEval(t, d, text)

	cases := []struct {
		path string
		want []dag.NodeID
	}{
		{"course", []dag.NodeID{ids["c650"], ids["c320"], ids["c240"]}},
		{`course[cno="CS650"]`, []dag.NodeID{ids["c650"]}},
		{`//course[cno="CS320"]`, []dag.NodeID{ids["c320"]}},
		{`course[cno="CS650"]//course[cno="CS320"]/prereq`, []dag.NodeID{ids["pre320"]}},
		{`//student[sid="S02"]`, []dag.NodeID{ids["s02"]}},
		{`//course[cno="CS320"]//student[sid="S02"]`, []dag.NodeID{ids["s02"]}},
		{`course[cno="CS999"]`, nil},
		{`//takenBy/student`, []dag.NodeID{ids["s02"], ids["s01"]}},
		{`//course[prereq/course]`, []dag.NodeID{ids["c650"], ids["c320"]}},
		{`//course[not(prereq/course)]`, []dag.NodeID{ids["c240"]}},
		{`//course[label()=course]`, []dag.NodeID{ids["c650"], ids["c320"], ids["c240"]}},
		{`//*[sid="S02"]`, []dag.NodeID{ids["s02"]}},
		{`course[cno="CS650" or cno="CS240"]`, []dag.NodeID{ids["c650"], ids["c240"]}},
		{`.`, []dag.NodeID{ids["db"]}},
	}
	for _, c := range cases {
		res, err := ev.Eval(MustParse(c.path))
		if err != nil {
			t.Errorf("%s: %v", c.path, err)
			continue
		}
		want := append([]dag.NodeID(nil), c.want...)
		sortIDs(want)
		if !reflect.DeepEqual(res.Selected, want) {
			t.Errorf("%s: selected %v, want %v", c.path, res.Selected, want)
		}
	}
}

func TestEvalExample4(t *testing.T) {
	// Example 4/5 of the paper: delete //course[cno=CS320]//student[sid=S02]
	// yields Ep = {(takenBy of CS320, student S02)} — only that edge, not
	// the one under CS240.
	d, ids, text := fig1DAG(t)
	ev := newEval(t, d, text)
	res, err := ev.Eval(MustParse(`//course[cno="CS320"]//student[sid="S02"]`))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 1 || res.Selected[0] != ids["s02"] {
		t.Fatalf("selected = %v", res.Selected)
	}
	want := []dag.Edge{{Parent: ids["tb320"], Child: ids["s02"]}}
	if !reflect.DeepEqual(res.Edges, want) {
		t.Errorf("Ep = %v, want %v", res.Edges, want)
	}
	// The S02 node also occurs under CS650's own takenBy, but that edge
	// (tb650, s02) is untouched — no side effect on it. The (tb320, s02)
	// edge occurs in both the top-level CS320 subtree and the copy under
	// CS650, and both occurrences match //course[...]//student, so there
	// is no delete side effect either.
	if res.HasDeleteSideEffects() {
		t.Errorf("unexpected delete side effects: %v", res.DeleteWitnesses)
	}

	// Example 5's second update: delete //student[sid=S02] yields both
	// takenBy edges.
	res, err = ev.Eval(MustParse(`//student[sid="S02"]`))
	if err != nil {
		t.Fatal(err)
	}
	want = []dag.Edge{
		{Parent: ids["tb320"], Child: ids["s02"]},
		{Parent: ids["tb650"], Child: ids["s02"]},
	}
	sortEdges(want)
	if !reflect.DeepEqual(res.Edges, want) {
		t.Errorf("Ep = %v, want %v", res.Edges, want)
	}
}

func TestEvalExample1SideEffect(t *testing.T) {
	// Example 1: insert into course[cno=CS650]//course[cno=CS320]/prereq.
	// The CS320 prereq node is shared with the top-level CS320 course, whose
	// occurrence is NOT below CS650 — a side effect must be detected.
	d, ids, text := fig1DAG(t)
	ev := newEval(t, d, text)
	res, err := ev.Eval(MustParse(`course[cno="CS650"]//course[cno="CS320"]/prereq`))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 1 || res.Selected[0] != ids["pre320"] {
		t.Fatalf("selected = %v", res.Selected)
	}
	if !res.HasInsertSideEffects() {
		t.Error("side effect not detected (Example 1)")
	}
	if len(res.InsertWitnesses) != 1 || res.InsertWitnesses[0] != ids["pre320"] {
		t.Errorf("witnesses = %v", res.InsertWitnesses)
	}

	// Inserting at ALL CS320 prereq occurrences (//course[cno=CS320]/prereq)
	// has no side effect: every occurrence is selected.
	res, err = ev.Eval(MustParse(`//course[cno="CS320"]/prereq`))
	if err != nil {
		t.Fatal(err)
	}
	if res.HasInsertSideEffects() {
		t.Errorf("unexpected side effects: %v", res.InsertWitnesses)
	}
}

func TestEvalDeleteSideEffect(t *testing.T) {
	// delete course[cno=CS650]/prereq/course[cno=CS320] (§2.1): the edge
	// (pre650, c320) occurs once and is selected — no side effect on the
	// edge itself. But restricting to the top-level CS320's prereq edge:
	// delete course[cno=CS320]/prereq/course[cno=CS240] — the edge
	// (pre320, c240) ALSO occurs inside CS650's copy of CS320, where the
	// path course[cno=CS320]/... does not select it (course step starts at
	// db). That occurrence is unselected -> side effect.
	d, ids, text := fig1DAG(t)
	ev := newEval(t, d, text)

	res, err := ev.Eval(MustParse(`course[cno="CS650"]/prereq/course[cno="CS320"]`))
	if err != nil {
		t.Fatal(err)
	}
	wantE := []dag.Edge{{Parent: ids["pre650"], Child: ids["c320"]}}
	if !reflect.DeepEqual(res.Edges, wantE) {
		t.Fatalf("Ep = %v, want %v", res.Edges, wantE)
	}
	if res.HasDeleteSideEffects() {
		t.Errorf("unexpected side effects: %v", res.DeleteWitnesses)
	}

	res, err = ev.Eval(MustParse(`course[cno="CS320"]/prereq/course[cno="CS240"]`))
	if err != nil {
		t.Fatal(err)
	}
	wantE = []dag.Edge{{Parent: ids["pre320"], Child: ids["c240"]}}
	if !reflect.DeepEqual(res.Edges, wantE) {
		t.Fatalf("Ep = %v, want %v", res.Edges, wantE)
	}
	if !res.HasDeleteSideEffects() {
		t.Error("side effect not detected: the CS320 subtree is shared under CS650")
	}
}

// TestEvalAgainstOracleFig1 checks the whole differential corpus on the
// Fig.1 view — by the route Eval picks, by the sweep and by the tree oracle,
// live and sealed (checkRoutes) — and again after deletions and after
// re-insertions that leave dead and duplicate ids in the per-type lists.
func TestEvalAgainstOracleFig1(t *testing.T) {
	d, ids, text := fig1DAG(t)
	check := func(stage string) {
		t.Helper()
		or := newOracle(d, text)
		for _, ps := range fig1Corpus {
			if err := checkRoutes(d, text, nil, or, MustParse(ps)); err != nil {
				t.Errorf("%s: %s: %v", stage, ps, err)
			}
		}
	}
	check("initial")

	// Unshare CS320 from CS650, delete S01 for good, give CS240 a second
	// student: dead ids stay in the per-type lists.
	d.RemoveEdge(ids["pre650"], ids["c320"])
	d.RemoveNode(ids["sid01"])
	d.RemoveNode(ids["s01"])
	d.AddEdge(ids["tb240"], ids["s02"])
	check("after deletes")

	// Resurrect S01 under its old id (a duplicate entry in the student
	// list) with a new sid node, and share CS240 once more.
	s01, created := d.AddNode("student", relational.Tuple{relational.Str("S01")})
	if !created || s01 != ids["s01"] {
		t.Fatalf("resurrection: id %d created=%v", s01, created)
	}
	sid, _ := d.AddNode("sid", relational.Tuple{relational.Str("S01b")})
	d.AddEdge(s01, sid)
	d.AddEdge(ids["tb650"], s01)
	d.AddEdge(ids["pre650"], ids["c240"])
	base := text
	text = func(v dag.NodeID) (string, bool) {
		if v == sid {
			return "S01", true
		}
		return base(v)
	}
	check("after re-inserts")
}

// Property test: on random DAGs with random paths, every route of the DAG
// evaluator matches the tree oracle exactly (selection, Ep, and both
// side-effect kinds), live and sealed, before and after random updates.
func TestEvalAgainstOracleRandom(t *testing.T) {
	labels := []string{"a", "b", "c"}
	values := []string{"x", "y"}

	genPath := func(rng *rand.Rand) string {
		var b []byte
		steps := 1 + rng.Intn(3)
		for i := 0; i < steps; i++ {
			switch rng.Intn(4) {
			case 0:
				b = append(b, "//"...)
			default:
				if i > 0 {
					b = append(b, '/')
				}
			}
			switch rng.Intn(5) {
			case 0:
				b = append(b, '*')
			default:
				b = append(b, labels[rng.Intn(len(labels))]...)
			}
			if rng.Intn(3) == 0 {
				b = append(b, '[')
				switch rng.Intn(4) {
				case 0:
					b = append(b, labels[rng.Intn(len(labels))]...)
				case 1:
					b = append(b, labels[rng.Intn(len(labels))]...)
					b = append(b, '=')
					b = append(b, '"')
					b = append(b, values[rng.Intn(len(values))]...)
					b = append(b, '"')
				case 2:
					b = append(b, "not("...)
					b = append(b, labels[rng.Intn(len(labels))]...)
					b = append(b, ')')
				case 3:
					b = append(b, labels[rng.Intn(len(labels))]...)
					b = append(b, " or "...)
					b = append(b, labels[rng.Intn(len(labels))]...)
				}
				b = append(b, ']')
			}
		}
		return string(b)
	}

	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := dag.New("db")
		var ids []dag.NodeID
		ids = append(ids, d.Root())
		texts := map[dag.NodeID]string{}
		n := 4 + rng.Intn(12)
		for i := 1; i <= n; i++ {
			typ := labels[rng.Intn(len(labels))]
			id, _ := d.AddNode(typ, relational.Tuple{relational.Int(int64(i))})
			if rng.Intn(2) == 0 {
				texts[id] = values[rng.Intn(len(values))]
			}
			// 1-2 parents among earlier nodes: creates sharing.
			for k := 0; k < 1+rng.Intn(2); k++ {
				d.AddEdge(ids[rng.Intn(len(ids))], id)
			}
			ids = append(ids, id)
		}
		text := func(id dag.NodeID) (string, bool) { s, ok := texts[id]; return s, ok }
		for round := 0; round < 2; round++ {
			or := newOracle(d, text)
			for trial := 0; trial < 6; trial++ {
				ps := genPath(rng)
				p, err := Parse(ps)
				if err != nil {
					continue
				}
				if err := checkRoutes(d, text, nil, or, p); err != nil {
					t.Logf("seed %d round %d path %q: %v", seed, round, ps, err)
					return false
				}
			}
			// Updates between the rounds: drop a node, unshare an edge,
			// bring the node back under its old id with one parent.
			victim := ids[1+rng.Intn(n)]
			d.RemoveNode(victim)
			if u := ids[1+rng.Intn(n)]; d.Alive(u) && len(d.Parents(u)) > 1 {
				d.RemoveEdge(d.Parents(u)[0], u)
			}
			back, _ := d.AddNode(d.Type(victim), d.Attr(victim))
			d.AddEdge(d.Root(), back)
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestEvalPathTooLong(t *testing.T) {
	d, _, text := fig1DAG(t)
	ev := newEval(t, d, text)
	long := "a"
	for i := 0; i < 70; i++ {
		long += "/a"
	}
	if _, err := ev.Eval(MustParse(long)); err == nil {
		t.Error("over-long path accepted")
	}
}

func TestEvalNilTextMakesComparisonsFalse(t *testing.T) {
	d, _, _ := fig1DAG(t)
	ev := newEval(t, d, nil)
	res, err := ev.Eval(MustParse(`course[cno="CS650"]`))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 0 {
		t.Errorf("selected = %v", res.Selected)
	}
}

func TestEvalSelectMatchesEval(t *testing.T) {
	d, _, text := fig1DAG(t)
	ev := newEval(t, d, text)
	paths := []string{
		"course", "//course", "//student", `course[cno="CS650"]//course[cno="CS320"]/prereq`,
		`//course[prereq/course]`, `//student[sid="S02"]`, "course/prereq//course",
	}
	for _, ps := range paths {
		p := MustParse(ps)
		full, err := ev.Eval(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, sel := range []func(*Path) (*Result, error){ev.EvalSelect, ev.EvalSelectSweep} {
			fast, err := sel(p)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(full.Selected, fast.Selected) {
				t.Errorf("%s: selection differs: %v vs %v", ps, full.Selected, fast.Selected)
			}
			if fast.Edges != nil || len(fast.InsertWitnesses) != 0 || len(fast.DeleteWitnesses) != 0 {
				t.Errorf("%s: EvalSelect must report neither Ep nor witnesses", ps)
			}
		}
	}
}

// Property: EvalSelect's union-mask collapse preserves selection on random
// DAGs (transitions are bit-linear).
func TestEvalSelectProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := dag.New("db")
		ids := []dag.NodeID{d.Root()}
		labels := []string{"a", "b", "c"}
		for i := 1; i <= 12; i++ {
			id, _ := d.AddNode(labels[rng.Intn(3)], relational.Tuple{relational.Int(int64(i))})
			for k := 0; k < 1+rng.Intn(2); k++ {
				d.AddEdge(ids[rng.Intn(len(ids))], id)
			}
			ids = append(ids, id)
		}
		ev := newEval(t, d, nil)
		for _, ps := range []string{"//a", "//a//b", "a/b", "//*[a]", "a[not(b)]/c"} {
			p := MustParse(ps)
			full, err := ev.EvalSweep(p)
			if err != nil {
				return false
			}
			for _, sel := range []func(*Path) (*Result, error){ev.EvalSelect, ev.EvalSelectSweep} {
				fast, err := sel(p)
				if err != nil || !reflect.DeepEqual(full.Selected, fast.Selected) || fast.Edges != nil {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
