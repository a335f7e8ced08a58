package xpath

// Tests that pin the three evaluation routes to each other and to the tree
// oracle: whatever route Eval picks, the sweep and the unfolded-tree
// semantics must give the same four result fields, and whatever route
// EvalSelect picks, the same selection — over the live DAG and over a
// sealed Version, before and after updates.

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"rxview/internal/dag"
	"rxview/internal/relational"
	"rxview/internal/testkit"
)

type (
	textFn = func(dag.NodeID) (string, bool)
	seedFn = func(typ, s string, dst []dag.NodeID) ([]dag.NodeID, bool)
)

// views returns evaluators over the live DAG and over a sealed Version of
// it, built fresh from the DAG's current state. Only the live one gets the
// seed function, as only the live view has a registry.
func views(d *dag.DAG, text textFn, seeds seedFn, maskLimit int) map[string]*Evaluator {
	return map[string]*Evaluator{
		"live":   {D: d, Text: text, Seeds: seeds, MaskLimit: maskLimit},
		"sealed": {D: d.Seal(), Text: text, MaskLimit: maskLimit},
	}
}

func sameFields(a, b *Result) bool {
	return reflect.DeepEqual(a.Selected, b.Selected) && reflect.DeepEqual(a.Edges, b.Edges) &&
		reflect.DeepEqual(a.InsertWitnesses, b.InsertWitnesses) &&
		reflect.DeepEqual(a.DeleteWitnesses, b.DeleteWitnesses)
}

func showResult(r *Result) string {
	return fmt.Sprintf("%v | %v | %v | %v (overflow=%v, %s, visited=%d)",
		r.Selected, r.Edges, r.InsertWitnesses, r.DeleteWitnesses, r.Overflow, r.Route, r.Visited)
}

// selectRoute is the route EvalSelect takes for p.
func selectRoute(p *Path) Route {
	if p.compiled().down {
		return RouteDown
	}
	return p.Route()
}

// reachedCount is the number of nodes the root reaches: what a sweep
// visits.
func reachedCount(d dag.Reader) int {
	n := 0
	for _, r := range testkit.Reachable(d) {
		if r {
			n++
		}
	}
	return n
}

// checkRoutes evaluates p every way there is — the route Eval picks, the
// sweep, select-only by its route and by the sweep — over the live view
// (with seeds, when given) and the sealed view, and compares everything
// with the tree oracle. A sweep must visit exactly the nodes the root
// reaches, and no other route more nodes than the view has. It returns an
// error rather than failing so property tests and the fuzz target can
// report their input.
func checkRoutes(d *dag.DAG, text textFn, seeds seedFn, or *oracle, p *Path) error {
	want := or.eval(p)
	reached := reachedCount(d)
	wantRes := &Result{Selected: want.selected, Edges: want.edges,
		InsertWitnesses: want.insertWitnesses, DeleteWitnesses: want.deleteWitnesses}
	for name, ev := range views(d, text, seeds, 0) {
		routed, err := ev.Eval(p)
		if err != nil {
			return fmt.Errorf("%s: Eval: %w", name, err)
		}
		swept, err := ev.EvalSweep(p)
		if err != nil {
			return fmt.Errorf("%s: EvalSweep: %w", name, err)
		}
		if routed.Route != p.Route() || swept.Route != RouteSweep {
			return fmt.Errorf("%s: routes taken %s/%s, path says %s", name, routed.Route, swept.Route, p.Route())
		}
		if routed.Overflow || swept.Overflow {
			return fmt.Errorf("%s: unexpected overflow", name)
		}
		for route, got := range map[string]*Result{"routed": routed, "sweep": swept} {
			if !sameFields(got, wantRes) {
				return fmt.Errorf("%s %s:\n got  %s\n want %s", name, route, showResult(got), showResult(wantRes))
			}
		}
		if swept.Visited != reached {
			return fmt.Errorf("%s: the sweep visited %d nodes, the root reaches %d", name, swept.Visited, reached)
		}
		if routed.Visited > d.NumNodes() {
			return fmt.Errorf("%s: the %s route visited %d nodes of %d", name, routed.Route, routed.Visited, d.NumNodes())
		}
		for _, sel := range []struct {
			eval func(*Path) (*Result, error)
			want Route
		}{{ev.EvalSelect, selectRoute(p)}, {ev.EvalSelectSweep, RouteSweep}} {
			fast, err := sel.eval(p)
			if err != nil {
				return fmt.Errorf("%s select-only %s: %w", name, sel.want, err)
			}
			if fast.Route != sel.want {
				return fmt.Errorf("%s select-only: route %s, want %s", name, fast.Route, sel.want)
			}
			if !reflect.DeepEqual(fast.Selected, want.selected) {
				return fmt.Errorf("%s select-only %s: %v, want %v", name, sel.want, fast.Selected, want.selected)
			}
			if fast.Edges != nil || fast.InsertWitnesses != nil || fast.DeleteWitnesses != nil || fast.Overflow {
				return fmt.Errorf("%s select-only %s carries more than the selection: %s", name, sel.want, showResult(fast))
			}
			if fast.Visited > d.NumNodes() || sel.want == RouteSweep && fast.Visited != reached {
				return fmt.Errorf("%s: the select-only %s route visited %d nodes of %d, the root reaches %d",
					name, sel.want, fast.Visited, d.NumNodes(), reached)
			}
		}
	}
	return nil
}

// fig1Corpus is the differential corpus over the Fig.1 view (see
// TestEvalAgainstOracleFig1): every shape the route rule distinguishes,
// anchored and not.
var fig1Corpus = []string{
	"course", "//course", "//student", "*", "//*", ".",
	`course[cno="CS650"]`, `//course[cno="CS320"]`,
	`course[cno="CS650"]//course[cno="CS320"]/prereq`,
	`//course[cno="CS320"]//student[sid="S02"]`,
	`//student[sid="S02"]`, `//takenBy/student`,
	`//course[prereq/course]`, `//course[not(prereq/course)]`,
	`//course[prereq/course and takenBy/student]`,
	`//course[prereq/course or takenBy/student]`,
	`//*[label()=student]`, `course/prereq//course`,
	`course[cno="CS320"]/prereq/course[cno="CS240"]`,
	`//prereq/course`, "course//student", "//cno",
	`course[takenBy/student[sid="S02"]]`,
	// Anchored shapes beyond the plain key filter.
	`//course[cno="CS320"]/prereq/course`, `//course[cno="CS320"]//`, `//course[cno="CS650"]/*`,
	`//course[cno="CS320" and prereq/course]`, `//course[not(takenBy) and cno="CS240"]`,
	`//course[cno="CS320"][takenBy/student]`, `//*[takenBy/student/sid="S02"]`,
	`//course[takenBy/student/sid="S01"]/cno`, `//course[cno="CS999"]/prereq`,
	`//course[prereq[course[cno="CS240"]] and cno="CS320"]`,
	`//course[cno="CS320"]/prereq/course[cno="CS240"]/takenBy//`,
	`.[course/cno="CS650"]/course`, `//student[sid="S02"][sid="S01"]`,
	// Fall-backs: no value chain at the top of a conjunction, or // in a filter.
	`course[cno="CS650" or cno="CS240"]`, `//course[.//sid="S02"]`, `//cno[.="CS320"]`,
	`//course[cno="CS320" and .//student]`, `//course[not(cno="CS320")]`,
	`//course[prereq[course][course]]`,
}

// synthDAG is a miniature of the §5 synthetic view: db → C*, every C has a
// key, a val and a sub, and sub → C* with sharing across levels.
func synthDAG(t testing.TB) (*dag.DAG, textFn) {
	t.Helper()
	d := dag.New("db")
	texts := map[dag.NodeID]string{}
	var cs []dag.NodeID
	for i := 0; i < 7; i++ {
		c, _ := d.AddNode("C", relational.Tuple{relational.Int(int64(i))})
		k, _ := d.AddNode("key", relational.Tuple{relational.Int(int64(i))})
		v, _ := d.AddNode("val", relational.Tuple{relational.Int(int64(i)), relational.Str("v")})
		s, _ := d.AddNode("sub", relational.Tuple{relational.Int(int64(i))})
		texts[k], texts[v] = fmt.Sprint(i), fmt.Sprintf("v%d", i%3)
		for _, x := range []dag.NodeID{k, v, s} {
			d.AddEdge(c, x)
		}
		cs = append(cs, c)
	}
	sub := func(i int) dag.NodeID { return d.Children(cs[i])[2] }
	for _, top := range []int{0, 1, 2} {
		d.AddEdge(d.Root(), cs[top])
	}
	for _, e := range [][2]int{{0, 3}, {0, 4}, {1, 4}, {2, 5}, {3, 6}, {4, 6}, {5, 6}, {1, 5}} {
		d.AddEdge(sub(e[0]), cs[e[1]])
	}
	if err := testkit.CheckAcyclic(d); err != nil {
		t.Fatal(err)
	}
	return d, func(v dag.NodeID) (string, bool) { s, ok := texts[v]; return s, ok }
}

// The benchmark's five hot shapes, the paper's W1/W2/W3 classes and a few
// more, over the miniature synthetic view.
var synthCorpus = []string{
	`C[key="1"]/sub`, `//C[key="4"]/sub/C`, `//C[key="6"]`, `//C[val="v1"]/sub`, `//C[val="v0"]`,
	`//C[val="v1"]`, `C[key="0"]/sub/C[key="4"]/sub/C[key="6"]`, `//C[key="4"]/sub/C[key="6"]`,
	`//C[val="v0"]//C[sub/C]`, `//C[key="1" or key="2"]`, `//C`, `C/sub/C`, `//C[sub/C/key="6"]/key`,
	`//C[key="6"]/val`, `//sub[C/key="6"]`, `//C[val="v2"][key="5"]//`, `//*[key="3"]/*/*`,
	`.//C[key="3"]`,
	// Windows: a filter decided at the window's top, a rooted path whose
	// entries are empty, a rooted path that cannot reach its deep target,
	// and a later // (no window).
	`//.[sub/C]/C[key="3"]`, `C[key="1"]/sub/C[key="2"]`, `C/sub/C[key="6"]`, `C[key="6"]`, `//C//C[key="3"]`,
}

func TestRoutesAgreeOnSynthetic(t *testing.T) {
	d, text := synthDAG(t)
	or := newOracle(d, text)
	// Reads back to back first: nothing between two down-route evaluations
	// resets the pooled per-node filter bits but the route itself
	// (`//C[key="4"]/sub/C[key="6"]` then `//C[val="v0"]//C[sub/C]` decide
	// their step-5 filters at the same C).
	ev := &Evaluator{D: d, Text: text}
	for _, ps := range synthCorpus {
		p := MustParse(ps)
		if got, err := ev.EvalSelect(p); err != nil || !reflect.DeepEqual(got.Selected, or.eval(p).selected) {
			t.Errorf("%s: EvalSelect by the %s route: %v (%v), want %v", ps, selectRoute(p), got.Selected, err, or.eval(p).selected)
		}
	}
	for _, ps := range synthCorpus {
		if err := checkRoutes(d, text, nil, or, MustParse(ps)); err != nil {
			t.Errorf("%s: %v", ps, err)
		}
	}
}

// registryDAG is synthDAG with the key text a live view's seed function can
// invert — each key's text is its one attribute field rendered — and with
// four more C's under the root whose keys are the string "3" (the same text
// as the integer 3), the string "007", NULL and true. Its seed function
// finds key nodes by Lookup over relational.Renderings, reports false for
// val (whose text is not its attribute) and finds nothing for the types
// without text.
func registryDAG(t testing.TB) (*dag.DAG, textFn, seedFn) {
	t.Helper()
	d, synthText := synthDAG(t)
	for i, k := range []relational.Value{relational.Str("3"), relational.Str("007"), relational.Null(), relational.Bool(true)} {
		c, _ := d.AddNode("C", relational.Tuple{relational.Int(int64(100 + i))})
		key, _ := d.AddNode("key", relational.Tuple{k})
		d.AddEdge(c, key)
		d.AddEdge(d.Root(), c)
	}
	text := func(v dag.NodeID) (string, bool) {
		if d.Type(v) == "key" {
			return d.Attr(v)[0].String(), true
		}
		return synthText(v)
	}
	seeds := func(typ, s string, dst []dag.NodeID) ([]dag.NodeID, bool) {
		switch typ {
		case "key":
			for _, c := range relational.Renderings(s, nil) {
				if id, ok := d.Lookup(typ, relational.Tuple{c}); ok {
					dst = append(dst, id)
				}
			}
		case "val":
			return dst, false
		}
		return dst, true
	}
	if got, _ := seeds("key", "3", nil); len(got) != 2 {
		t.Fatalf(`registryDAG: key seeds for "3" are %v, want the integer key and the string key`, got)
	}
	return d, text, seeds
}

// registryCorpus probes registryDAG's keys: texts several values render to,
// keys of the other kinds, and texts that only look like a rendering.
var registryCorpus = []string{
	`//C[key="3"]/key`, `//*[key="3"]`, `//C[key="007"]`, `//C[key="00"]`, `//C[key="003"]`,
	`//C[key="NULL"]`, `//C[key="true"]`, `//C[val="NULL"]`, `//C[key=""]`,
}

// TestRouteTable pins which route Eval and EvalSelect take for each path
// shape, so a refactor cannot silently send the hot shapes back to the
// sweep, or reads back through the cone.
func TestRouteTable(t *testing.T) {
	const A, D, S = RouteAnchored, RouteDown, RouteSweep
	cases := []struct {
		path      string
		eval, sel Route
	}{
		// The benchmark's five shapes.
		{`C[key="17"]/sub`, A, A},
		{`//C[key="17"]/sub/C`, A, D},
		{`//C[key="17"]`, A, D},
		{`//C[val="v3"]/sub`, A, D},
		{`//C[val="v3"]`, A, D},
		// W1 (value-selected), W2 (rooted key chain), W3 (// then key chain).
		{`//C[val="v7"]/sub`, A, D},
		{`C[key="1"]/sub/C[key="2"]/sub/C[key="3"]`, A, A},
		{`//C[key="2"]/sub/C[key="3"]`, A, D},
		// Other anchors: bare values, deeper chains, conjunctions, nested
		// child filters, an anchor behind a non-anchoring filter.
		{`//course[cno=CS650]//course[cno=CS320]/prereq`, A, D},
		{`//course[takenBy/student/sid="S02"]`, A, D},
		{`//C[sub/C and key="5"]`, A, D},
		{`//C[not(sub/C)][val="v1"]//`, A, D},
		{`//C/.[sub/C]/.[val="v1"]`, A, D},
		{`//C[sub[C[key="9"]] and val="v1"]`, A, D},
		{`//*[key="3"]/*/*`, A, D},
		{`.[C/key="1"]`, A, A},
		{`C[key="1"]/sub/C[key="2"]`, A, A},
		// Anchored, but not // then one label or * then the anchor: the cone.
		{`//C[sub/C]/sub/C[key="9"]`, A, A},
		{`//.[sub/C]/C[key="3"]`, A, A},
		{`.//C[key="3"]`, A, A},
		{`//sub/C[key="3"]`, A, A},
		{`//C//C[key="3"]`, A, A},
		// Fall-backs.
		{`//C`, S, S},
		{`C/sub/C`, S, S},
		{`//*`, S, S},
		{`.`, S, S},
		{`//C[sub/C]`, S, S},
		{`//C[key="1" or key="2"]`, S, S},
		{`//C[not(key="1")]`, S, S},
		{`//C[.//key="1"]`, S, S},
		{`//key[.="1"]`, S, S},
		{`//C[*="1"]`, S, S},
		{`//C[sub[C]/key="1"]`, S, S},
		{`//C[key="1" and .//C]`, S, S}, // // anywhere in a filter rules the route out
		{`//C[key="1"]/sub/C[sub//C]`, S, S},
	}
	d, text := synthDAG(t)
	ev := &Evaluator{D: d, Text: text}
	for _, c := range cases {
		p := MustParse(c.path)
		if got := p.Route(); got != c.eval {
			t.Errorf("%s: route %s, want %s", c.path, got, c.eval)
		}
		if res, err := ev.EvalSelect(p); err != nil {
			t.Errorf("%s: EvalSelect: %v", c.path, err)
		} else if res.Route != c.sel {
			t.Errorf("%s: EvalSelect took route %s, want %s", c.path, res.Route, c.sel)
		}
	}
}

// TestWindowTable pins the anchored route's window for each path shape: the
// levels of parents its cone climbs above X (-1: all of them), and for the
// value-selected insert the states each level keeps.
func TestWindowTable(t *testing.T) {
	for path, want := range map[string]int{
		`//C[val="v3"]/sub`:         2,
		`//C[key="17"]`:             1,
		`//C[key="17"]/sub/C`:       3,
		`C[key="17"]/sub`:           2,
		`C[key="1"]/sub/C[key="2"]`: 3,
		`//.[sub/C]/C[key="3"]`:     1,
		`//*[key="3"]/*/*`:          3,
		`.[C/key="1"]`:              1, // no child step: the parents of X all the same
		`//.[key="3"]`:              1,
		`//C[key="3"]//`:            -1,
		`//C//C[key="3"]`:           -1,
		`.//C[key="3"]`:             -1, // // after a first ε step
		`C[key="1"]//C[key="2"]`:    -1,
	} {
		if got := len(MustParse(path).compiled().live) - 1; got != want {
			t.Errorf("%s: window %d, want %d", path, got, want)
		}
	}
	// //, C, ε[val="v3"], sub: states 0 to 4 (accept) have consumed 0, 0,
	// 1, 1 and 2 child steps. One level above X the accept state is dead,
	// two levels above only the // state and its exit are live.
	live := MustParse(`//C[val="v3"]/sub`).compiled().live
	if want := []uint64{0b11111, 0b01111, 0b00011}; !reflect.DeepEqual(live, want) {
		t.Errorf("live states by level: %b, want %b", live, want)
	}
}

// TestWindowEntries runs the windowed shapes over synthDAG with a shortcut
// root → C6: C6 is a child of the root and, three subs deep, a grandchild of
// C3, C4 and C5, which lie outside every window of a path that ends at it
// within two steps. The subs at the window's top must then enter with the //
// state for a //-led path and with the empty set for a rooted one — which
// makes C[key="6"] an insertion with side effects (its deep occurrences are
// not selected) — and a rooted path's entries must never select.
func TestWindowEntries(t *testing.T) {
	d, text := synthDAG(t)
	c6, _ := d.Lookup("C", relational.Tuple{relational.Int(6)})
	d.AddEdge(d.Root(), c6)
	or := newOracle(d, text)
	for _, ps := range []string{`C[key="6"]`, `C[key="6"]/val`, `*[key="6"]`, `//C[key="6"]`, `//C[key="6"]/sub`,
		`//sub/C[key="6"]`, `C/sub/C[key="6"]`, `//.[sub/C]/C[key="6"]`, `//*[key="6"]/*`, `//C[val="v0"]/sub/C`,
		`C[key="3"]/sub/C[key="6"]`, `//C//C[key="6"]`} {
		if err := checkRoutes(d, text, nil, or, MustParse(ps)); err != nil {
			t.Errorf("%s: %v", ps, err)
		}
	}
	if res, err := (&Evaluator{D: d, Text: text}).Eval(MustParse(`C[key="6"]`)); err != nil || !res.HasInsertSideEffects() {
		t.Errorf(`C[key="6"]: insert witnesses %v (%v), want C6`, res.InsertWitnesses, err)
	}
}

// TestWindowTrimKeepsOverflowImplication: the window's entries can split
// what the sweep carries as one state-set into two — here at the a node v,
// which a run reaches as {0,1,2} whether through p or through the chain of
// z nodes above the window, but which enters from that chain as {0,1} — and
// the trim must merge them again, or the anchored route would overflow
// where the sweep does not. The split is in states that can no longer
// accept (state 2 has one child step left, v is two levels above X), so
// the results agree either way.
func TestWindowTrimKeepsOverflowImplication(t *testing.T) {
	d := dag.New("db")
	texts := map[dag.NodeID]string{}
	n := int64(0)
	node := func(typ string, parents ...dag.NodeID) dag.NodeID {
		id, _ := d.AddNode(typ, relational.Tuple{relational.Int(n)})
		n++
		for _, p := range parents {
			d.AddEdge(p, id)
		}
		return id
	}
	b := func(parent dag.NodeID) {
		texts[node("key", node("b", parent))] = "1"
	}
	p := node("a", d.Root())
	b(node("a", p))
	w := node("z", node("z", node("z", d.Root())))
	b(node("a", node("a", p, w)))
	text := func(v dag.NodeID) (string, bool) { s, ok := texts[v]; return s, ok }

	pa := MustParse(`//a/b[key="1"]`)
	if err := checkRoutes(d, text, nil, newOracle(d, text), pa); err != nil {
		t.Fatal(err)
	}
	for name, ev := range views(d, text, nil, 1) {
		routed, err := ev.Eval(pa)
		if err != nil {
			t.Fatal(err)
		}
		swept, err := ev.EvalSweep(pa)
		if err != nil {
			t.Fatal(err)
		}
		if routed.Route != RouteAnchored || routed.Overflow || swept.Overflow {
			t.Errorf("%s: the %s route overflowed %v, the sweep %v; want neither", name, routed.Route, routed.Overflow, swept.Overflow)
		}
	}
}

// TestOverflowIsRaisedOnlyInsideTheCone: under a tiny MaskLimit the sweep
// collapses state-sets wherever sharing is deep, the anchored route only if
// that happens in the cone — so anchored Overflow implies sweep Overflow,
// never the reverse — and selection and Ep stay exact on both.
func TestOverflowIsRaisedOnlyInsideTheCone(t *testing.T) {
	d, text := synthDAG(t)
	or := newOracle(d, text)
	var anchoredOverflows, sweepOnlyOverflows int
	// The last two paths match a prefix through the shared C4 and then
	// nothing: the divergent state-sets at C4 are outside their (empty) cone.
	corpus := append(synthCorpus[:len(synthCorpus):len(synthCorpus)],
		`//C[key="0"]/sub/C/val/key`, `//C[key="0"]/sub/C/sub/C/sub/C/key`)
	for _, ps := range corpus {
		p := MustParse(ps)
		want := or.eval(p)
		for name, ev := range views(d, text, nil, 1) {
			routed, err := ev.Eval(p)
			if err != nil {
				t.Fatal(err)
			}
			swept, err := ev.EvalSweep(p)
			if err != nil {
				t.Fatal(err)
			}
			for route, got := range map[string]*Result{"routed": routed, "sweep": swept} {
				if !reflect.DeepEqual(got.Selected, want.selected) || !reflect.DeepEqual(got.Edges, want.edges) {
					t.Errorf("%s %s %s: %v | %v, want %v | %v", ps, name, route, got.Selected, got.Edges, want.selected, want.edges)
				}
			}
			if routed.Overflow && !swept.Overflow {
				t.Errorf("%s %s: the %s route overflowed where the sweep did not", ps, name, routed.Route)
			}
			if routed.Route == RouteAnchored {
				if routed.Overflow {
					anchoredOverflows++
				} else if swept.Overflow {
					sweepOnlyOverflows++
				}
			}
		}
	}
	if anchoredOverflows == 0 || sweepOnlyOverflows == 0 {
		t.Errorf("the corpus exercises neither side of the implication: %d anchored overflows, %d sweep-only",
			anchoredOverflows, sweepOnlyOverflows)
	}
}

// orphanDAG is synthDAG with what the live view can hold inside an open
// transaction: a parentless sub other than the root, the orphan, over C6
// and over C7 to C10. C7's first parent is the orphan and its second a
// reachable sub, C8 hangs under the orphan alone, C9's first parent is C8's
// sub and its second a reachable sub, C10 hangs under C8's sub alone, and
// C11 under sub1. Every new C has key i and val "v1". The oracle unfolds
// from the root, so the orphan is invisible to it — as it is to the sweep,
// whose propagation never reaches it.
func orphanDAG(t testing.TB) (*dag.DAG, textFn) {
	t.Helper()
	d, synthText := synthDAG(t)
	target, _ := d.Lookup("C", relational.Tuple{relational.Int(6)})
	orphan, _ := d.AddNode("sub", relational.Tuple{relational.Int(99)})
	d.AddEdge(orphan, target)

	texts := map[dag.NodeID]string{}
	text := func(v dag.NodeID) (string, bool) {
		if s, ok := texts[v]; ok {
			return s, true
		}
		return synthText(v)
	}
	addC := func(i int64, parents ...dag.NodeID) (c, sub dag.NodeID) {
		c, _ = d.AddNode("C", relational.Tuple{relational.Int(i)})
		k, _ := d.AddNode("key", relational.Tuple{relational.Int(i)})
		v, _ := d.AddNode("val", relational.Tuple{relational.Int(i), relational.Str("v")})
		sub, _ = d.AddNode("sub", relational.Tuple{relational.Int(i)})
		texts[k], texts[v] = fmt.Sprint(i), "v1"
		for _, x := range []dag.NodeID{k, v, sub} {
			d.AddEdge(c, x)
		}
		for _, p := range parents {
			d.AddEdge(p, c)
		}
		return c, sub
	}
	sub := func(i int64) dag.NodeID { n, _ := d.Lookup("sub", relational.Tuple{relational.Int(i)}); return n }
	addC(7, orphan, sub(0))
	_, sub8 := addC(8, orphan)
	addC(9, sub8, sub(1))
	addC(10, sub8)
	addC(11, sub(1))
	return d, text
}

// TestAnchoredDrainsParentlessNodes: inside an open transaction the live
// view can hold a parentless node other than the root above the cone
// (orphanDAG). It contributes no state-set, but the nodes below it must
// still be reached. The down route must tell the nodes it hangs over apart:
// both ways out of the first-parent walk (a parentless node, a node already
// found unreachable) reach the full search, which finds C7 and C9 and not
// C8 or C10. C11 hangs under sub1, which C9's search passed on its way up: a
// search that finds the root decides only the node it started from.
func TestAnchoredDrainsParentlessNodes(t *testing.T) {
	d, text := orphanDAG(t)
	or := newOracle(d, text)
	for _, ps := range []string{`//C[key="6"]`, `//C[key="6"]/val`, `//C[key="4"]/sub/C`, `//sub[C/key="6"]`,
		`//C[key="7"]`, `//C[key="8"]`, `//C[key="9"]/sub`, `//C[val="v1"]`, `//C[val="v1"]/sub/C`, `//C[key="8"]//C`, `//C[key="10"]`,
		// Windowed shapes whose top has the orphan's descendants C8 and sub8
		// as parents outside the window, which the root does not reach.
		`//C[key="9"]`, `//sub/C[key="10"]`, `C[key="10"]`, `C/sub/C[key="9"]`, `//*[key="9"]/sub`, `//.[sub/C]/C[key="10"]`} {
		if err := checkRoutes(d, text, nil, or, MustParse(ps)); err != nil {
			t.Errorf("%s: %v", ps, err)
		}
	}
}

// TestSweepVisitsWhatTheRootReaches: the sweep orders the nodes it visits
// itself, and they are exactly the nodes the root reaches — fewer than the
// view holds inside an open transaction (orphanDAG), where swept shapes must
// still agree with the oracle and with the route Eval picks.
func TestSweepVisitsWhatTheRootReaches(t *testing.T) {
	d, text := orphanDAG(t)
	if reached := reachedCount(d); reached >= d.NumNodes() {
		t.Fatalf("the root reaches %d of %d nodes: no parentless node to leave out", reached, d.NumNodes())
	}
	or := newOracle(d, text)
	for _, ps := range []string{`//C`, `C/sub/C`, `//C[sub/C]`, `//sub[not(C)]`, `//*`, `//C[.//val="v1"]/key`} {
		p := MustParse(ps)
		if p.Route() != RouteSweep {
			t.Fatalf("%s takes the %s route", ps, p.Route())
		}
		if err := checkRoutes(d, text, nil, or, p); err != nil {
			t.Errorf("%s: %v", ps, err)
		}
	}
}

func TestResultsDoNotAliasScratch(t *testing.T) {
	d, text := synthDAG(t)
	ev := &Evaluator{D: d, Text: text}
	p := MustParse(`//C[val="v0"]//`)
	first, err := ev.Eval(p)
	if err != nil {
		t.Fatal(err)
	}
	keep := &Result{
		Selected: append([]dag.NodeID(nil), first.Selected...), Edges: append([]dag.Edge(nil), first.Edges...),
		InsertWitnesses: append([]dag.NodeID(nil), first.InsertWitnesses...),
		DeleteWitnesses: append([]dag.Edge(nil), first.DeleteWitnesses...),
	}
	for _, ps := range synthCorpus { // reuse the pooled scratch many times over
		if _, err := ev.Eval(MustParse(ps)); err != nil {
			t.Fatal(err)
		}
	}
	if !sameFields(first, keep) {
		t.Errorf("a later evaluation rewrote an earlier result:\n now  %s\n was  %s", showResult(first), showResult(keep))
	}
}

// ---------- fuzzing ----------

type fuzzFixture struct {
	d     *dag.DAG
	text  textFn
	seeds seedFn
	or    *oracle
}

// oracleAffordable bounds the tree oracle's work: it re-evaluates a filter
// at every occurrence it meets, so its cost is exponential in the nesting
// depth of filters that themselves descend.
func oracleAffordable(p *Path) bool {
	var steps, maxDepth int
	var walkPath func(p *Path, depth int)
	var walkExpr func(e Expr, depth int)
	walkPath = func(p *Path, depth int) {
		maxDepth = max(maxDepth, depth)
		for _, s := range p.Steps {
			steps++
			for _, f := range s.Filters {
				walkExpr(f, depth+1)
			}
		}
	}
	walkExpr = func(e Expr, depth int) {
		switch t := e.(type) {
		case *ExprAnd:
			walkExpr(t.L, depth)
			walkExpr(t.R, depth)
		case *ExprOr:
			walkExpr(t.L, depth)
			walkExpr(t.R, depth)
		case *ExprNot:
			walkExpr(t.E, depth)
		case *ExprPath:
			walkPath(t.Path, depth)
		}
	}
	walkPath(p, 0)
	return steps <= 24 && maxDepth <= 3
}

// FuzzEvalRoutesAgree: whatever parses never panics, and the route Eval
// picks, the sweep and the unfolded-tree oracle agree on all four result
// fields — over the Fig.1 registrar view, the miniature synthetic view, its
// registry variant (whose live evaluator takes its seeds from Lookup) and
// its orphan variant (parents outside a window that the root does not
// reach), live and sealed. The seed corpus is the three corpora above plus, in
// testdata/fuzz/FuzzEvalRoutesAgree, the shapes of TestRouteTable.
func FuzzEvalRoutesAgree(f *testing.F) {
	for _, ps := range fig1Corpus {
		f.Add(ps)
	}
	for _, ps := range synthCorpus {
		f.Add(ps)
	}
	for _, ps := range registryCorpus {
		f.Add(ps)
	}
	var fixtures []fuzzFixture
	d, _, text := fig1DAG(f)
	fixtures = append(fixtures, fuzzFixture{d, text, nil, newOracle(d, text)})
	d, text = synthDAG(f)
	fixtures = append(fixtures, fuzzFixture{d, text, nil, newOracle(d, text)})
	d, text, seeds := registryDAG(f)
	fixtures = append(fixtures, fuzzFixture{d, text, seeds, newOracle(d, text)})
	d, text = orphanDAG(f)
	fixtures = append(fixtures, fuzzFixture{d, text, nil, newOracle(d, text)})
	f.Fuzz(func(t *testing.T, text string) {
		p, err := Parse(text)
		if err != nil {
			return
		}
		for _, fx := range fixtures {
			if len(p.compiled().steps) > MaxSteps || !oracleAffordable(p) {
				// No oracle: the routes must still agree with each other,
				// down to the error for an over-long path.
				ev := &Evaluator{D: fx.d, Text: fx.text, Seeds: fx.seeds}
				routed, err1 := ev.Eval(p)
				swept, err2 := ev.EvalSweep(p)
				fast, err3 := ev.EvalSelect(p)
				fastSwept, err4 := ev.EvalSelectSweep(p)
				var tooLong *PathTooLongError
				switch {
				case err1 != nil || err2 != nil || err3 != nil || err4 != nil:
					if !errors.As(err1, &tooLong) || !errors.As(err2, &tooLong) ||
						!errors.As(err3, &tooLong) || !errors.As(err4, &tooLong) {
						t.Fatalf("%q: Eval: %v, EvalSweep: %v, EvalSelect: %v, EvalSelectSweep: %v", text, err1, err2, err3, err4)
					}
				case !sameFields(routed, swept):
					t.Fatalf("%q:\n %s\n %s", text, showResult(routed), showResult(swept))
				case !reflect.DeepEqual(fast.Selected, fastSwept.Selected) || !reflect.DeepEqual(fast.Selected, routed.Selected):
					t.Fatalf("%q: select-only %v by the %s route, %v by the sweep; full %v",
						text, fast.Selected, fast.Route, fastSwept.Selected, routed.Selected)
				}
				continue
			}
			if err := checkRoutes(fx.d, fx.text, fx.seeds, fx.or, p); err != nil {
				t.Fatalf("%q: %v", text, err)
			}
		}
	})
}
