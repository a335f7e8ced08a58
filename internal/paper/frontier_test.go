package paper

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"rxview/internal/dag"
	"rxview/internal/relational"
	"rxview/internal/testkit"
	"rxview/internal/workload"
	"rxview/internal/xpath"
)

func newFrontier(t testing.TB, d *dag.DAG, text func(dag.NodeID) (string, bool)) *FrontierEvaluator {
	t.Helper()
	topo := ComputeTopo(d)
	return &FrontierEvaluator{D: d, Topo: topo, Matrix: Compute(d, topo), Text: text}
}

func newEval(t testing.TB, d *dag.DAG, text func(dag.NodeID) (string, bool)) *xpath.Evaluator {
	t.Helper()
	return &xpath.Evaluator{D: d, Text: text}
}

// fig1DAG publishes the registrar database of Example 1 through its ATG:
// the view of Fig.1, where CS320 and CS240 are each both a top-level course
// and a prerequisite, and student S02 hangs under two takenBy nodes.
func fig1DAG(t testing.TB) (*dag.DAG, func(dag.NodeID) (string, bool)) {
	t.Helper()
	reg := testkit.Must(workload.NewRegistrar())
	d, err := reg.ATG.PublishDAG(reg.DB)
	if err != nil {
		t.Fatal(err)
	}
	return d, reg.ATG.Text(d)
}

func TestFrontierMatchesNFAOnFig1(t *testing.T) {
	d, text := fig1DAG(t)
	nfa := newEval(t, d, text)
	fr := newFrontier(t, d, text)
	paths := []string{
		"course", "//course", "//student", "*", "//*",
		`course[cno="CS650"]`, `//course[cno="CS320"]`,
		`course[cno="CS650"]//course[cno="CS320"]/prereq`,
		`//course[cno="CS320"]//student[ssn="S02"]`,
		`//student[ssn="S02"]`, `//takenBy/student`,
		`//course[prereq/course]`, `//course[not(prereq/course)]`,
		"course/prereq//course", "//prereq/course", "course//student",
		`course[cno="CS320"]/prereq/course[cno="CS240"]`,
	}
	for _, ps := range paths {
		p := xpath.MustParse(ps)
		a, err := nfa.Eval(p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := fr.Eval(p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Selected, b.Selected) {
			t.Errorf("%s: selection %v vs %v", ps, a.Selected, b.Selected)
		}
		if !reflect.DeepEqual(a.Edges, b.Edges) {
			t.Errorf("%s: Ep %v vs %v", ps, a.Edges, b.Edges)
		}
		// The frontier S flags the intermediate nodes where sharing occurs
		// (the paper's granularity), so it is a boolean over-approximation:
		// an empty S guarantees no exact witnesses exist.
		if len(b.InsertWitnesses) == 0 && len(a.InsertWitnesses) > 0 {
			t.Errorf("%s: frontier S empty but exact witnesses %v",
				ps, a.InsertWitnesses)
		}
	}
}

// Property: frontier and NFA evaluators agree on selection and Ep over
// random DAGs and random paths, and the frontier's per-step S contains the
// exact witnesses.
func TestFrontierMatchesNFARandom(t *testing.T) {
	labels := []string{"a", "b", "c"}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := dag.New("db")
		ids := []dag.NodeID{d.Root()}
		for i := 1; i <= 14; i++ {
			id, _ := d.AddNode(labels[rng.Intn(3)], relational.Tuple{relational.Int(int64(i))})
			for k := 0; k < 1+rng.Intn(2); k++ {
				d.AddEdge(ids[rng.Intn(len(ids))], id)
			}
			ids = append(ids, id)
		}
		nfa := newEval(t, d, nil)
		fr := newFrontier(t, d, nil)
		for _, ps := range []string{
			"//a", "//a//b", "a/b", "a//b/c", "//*[a]", "a[not(b)]/c",
			"//a[b and c]", "a/b/c", "//b[label()=b]",
		} {
			p := xpath.MustParse(ps)
			a, e1 := nfa.Eval(p)
			b, e2 := fr.Eval(p)
			if e1 != nil || e2 != nil {
				return false
			}
			if !reflect.DeepEqual(a.Selected, b.Selected) || !reflect.DeepEqual(a.Edges, b.Edges) {
				t.Logf("seed %d path %s: %v|%v vs %v|%v", seed, ps,
					a.Selected, a.Edges, b.Selected, b.Edges)
				return false
			}
			if len(b.InsertWitnesses) == 0 && len(a.InsertWitnesses) > 0 {
				t.Logf("seed %d path %s: frontier S empty but exact witnesses %v",
					seed, ps, a.InsertWitnesses)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestEvaluatorParityPathTooLong extends the evaluator-parity oracle to
// paths beyond MaxSteps: both strategies must reject a >62-step path with
// the same typed *PathTooLongError, so the §3.2 strategy ablation cannot
// silently diverge on deep paths.
func TestEvaluatorParityPathTooLong(t *testing.T) {
	d, text := fig1DAG(t)
	nfa := newEval(t, d, text)
	fr := newFrontier(t, d, text)
	long := "a"
	for i := 0; i < xpath.MaxSteps+8; i++ {
		long += "/a"
	}
	p := xpath.MustParse(long)
	steps := len(xpath.Normalize(p))
	if steps <= xpath.MaxSteps {
		t.Fatalf("test path normalizes to %d steps, want > %d", steps, xpath.MaxSteps)
	}

	_, errNFA := nfa.Eval(p)
	_, errSel := nfa.EvalSelect(p)
	_, errFr := fr.Eval(p)
	for name, err := range map[string]error{"nfa": errNFA, "nfa-select": errSel, "frontier": errFr} {
		var tooLong *xpath.PathTooLongError
		if !errors.As(err, &tooLong) {
			t.Fatalf("%s: err = %v, want *PathTooLongError", name, err)
		}
		if tooLong.Steps != steps {
			t.Errorf("%s: Steps = %d, want %d", name, tooLong.Steps, steps)
		}
	}
	if errNFA.Error() != errFr.Error() {
		t.Errorf("evaluators diverge on deep paths: %q vs %q", errNFA, errFr)
	}

	// Exactly MaxSteps is accepted by both, and they agree.
	ok := "*"
	for i := 1; i < xpath.MaxSteps; i++ {
		ok += "/*"
	}
	pOK := xpath.MustParse(ok)
	a, err := nfa.Eval(pOK)
	if err != nil {
		t.Fatalf("nfa at limit: %v", err)
	}
	b, err := fr.Eval(pOK)
	if err != nil {
		t.Fatalf("frontier at limit: %v", err)
	}
	if !reflect.DeepEqual(a.Selected, b.Selected) {
		t.Errorf("selection at the limit: %v vs %v", a.Selected, b.Selected)
	}
}
