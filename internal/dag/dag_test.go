package dag

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"rxview/internal/relational"
	"rxview/internal/xtree"
)

// chainDAG builds db -> c1 -> c2 -> shared; c1 -> shared (diamond).
func chainDAG(t *testing.T) (*DAG, NodeID, NodeID, NodeID) {
	t.Helper()
	d := New("db")
	c1, _ := d.AddNode("C", relational.Tuple{relational.Int(1)})
	c2, _ := d.AddNode("C", relational.Tuple{relational.Int(2)})
	sh, _ := d.AddNode("C", relational.Tuple{relational.Int(3)})
	d.AddEdge(d.Root(), c1)
	d.AddEdge(c1, c2)
	d.AddEdge(c2, sh)
	d.AddEdge(c1, sh)
	return d, c1, c2, sh
}

func TestSkolemIdentity(t *testing.T) {
	d := New("db")
	a1, created := d.AddNode("C", relational.Tuple{relational.Int(7)})
	if !created {
		t.Error("first AddNode should create")
	}
	a2, created := d.AddNode("C", relational.Tuple{relational.Int(7)})
	if created || a1 != a2 {
		t.Error("gen_id must be a function of (type, attr)")
	}
	b, created := d.AddNode("D", relational.Tuple{relational.Int(7)})
	if !created || b == a1 {
		t.Error("different types must get different ids")
	}
	if id, ok := d.Lookup("C", relational.Tuple{relational.Int(7)}); !ok || id != a1 {
		t.Error("Lookup")
	}
	if _, ok := d.Lookup("C", relational.Tuple{relational.Int(8)}); ok {
		t.Error("Lookup of absent node")
	}
}

func TestEdgesSetSemantics(t *testing.T) {
	d, c1, c2, _ := chainDAG(t)
	if d.AddEdge(c1, c2) {
		t.Error("duplicate edge accepted")
	}
	if got := d.NumEdges(); got != 4 {
		t.Errorf("NumEdges = %d", got)
	}
	if !d.HasEdge(c1, c2) || d.HasEdge(c2, c1) {
		t.Error("HasEdge")
	}
	if !d.RemoveEdge(c1, c2) {
		t.Error("RemoveEdge failed")
	}
	if d.RemoveEdge(c1, c2) {
		t.Error("double RemoveEdge succeeded")
	}
	if d.NumEdges() != 3 {
		t.Errorf("NumEdges after remove = %d", d.NumEdges())
	}
}

func TestChildOrderIsRightmostInsert(t *testing.T) {
	d := New("db")
	a, _ := d.AddNode("C", relational.Tuple{relational.Int(1)})
	b, _ := d.AddNode("C", relational.Tuple{relational.Int(2)})
	d.AddEdge(d.Root(), a)
	d.AddEdge(d.Root(), b)
	ch := d.Children(d.Root())
	if len(ch) != 2 || ch[0] != a || ch[1] != b {
		t.Errorf("children order = %v", ch)
	}
	if ps := d.Parents(a); len(ps) != 1 || ps[0] != d.Root() {
		t.Errorf("parents = %v", ps)
	}
}

func TestNodesOfTypeAndResurrection(t *testing.T) {
	d, c1, _, _ := chainDAG(t)
	if got := d.NodesOfType("C"); len(got) != 3 {
		t.Errorf("NodesOfType(C) = %v", got)
	}
	d.RemoveEdge(d.Root(), c1)
	d.RemoveNode(c1)
	if got := d.NodesOfType("C"); len(got) != 2 {
		t.Errorf("after remove NodesOfType(C) = %v", got)
	}
	// Re-adding the same identity resurrects the same id.
	c1b, created := d.AddNode("C", relational.Tuple{relational.Int(1)})
	if !created || c1b != c1 {
		t.Errorf("resurrection: id %d created=%v, want %d", c1b, created, c1)
	}
	if got := d.NodesOfType("C"); len(got) != 3 {
		t.Errorf("after resurrect NodesOfType(C) = %v", got)
	}
}

func TestEdgesGroupedByRelation(t *testing.T) {
	d, c1, _, _ := chainDAG(t)
	rels := d.Edges()
	if len(rels["db→C"]) != 1 || len(rels["C→C"]) != 3 {
		t.Errorf("Edges() = %v", rels)
	}
	e := Edge{d.Root(), c1}
	if d.EdgeRelationName(e) != "edge_db_C" {
		t.Errorf("EdgeRelationName = %s", d.EdgeRelationName(e))
	}
	if e.String() != "(0→1)" {
		t.Errorf("Edge.String = %s", e.String())
	}
}

func TestOccurrenceCountsAndTreeSize(t *testing.T) {
	d, c1, c2, sh := chainDAG(t)
	occ := OccurrenceCounts(d)
	if occ[d.Root()] != 1 || occ[c1] != 1 || occ[c2] != 1 {
		t.Errorf("occ = %v", occ)
	}
	if occ[sh] != 2 { // two paths: via c1 and via c1->c2
		t.Errorf("occ(shared) = %v", occ[sh])
	}
	if ts := TreeSize(d); ts != 5 {
		t.Errorf("TreeSize = %v", ts)
	}
	if n := SharedNodeCount(d); n != 1 {
		t.Errorf("SharedNodeCount = %d", n)
	}
}

func TestExponentialCompression(t *testing.T) {
	// A ladder of diamonds: tree size 2^k, DAG size 2k+1.
	d := New("db")
	prev := d.Root()
	k := 30
	for i := 0; i < k; i++ {
		l, _ := d.AddNode("L", relational.Tuple{relational.Int(int64(i))})
		r, _ := d.AddNode("R", relational.Tuple{relational.Int(int64(i))})
		bot, _ := d.AddNode("B", relational.Tuple{relational.Int(int64(i))})
		d.AddEdge(prev, l)
		d.AddEdge(prev, r)
		d.AddEdge(l, bot)
		d.AddEdge(r, bot)
		prev = bot
	}
	if d.NumNodes() != 3*k+1 {
		t.Fatalf("NumNodes = %d", d.NumNodes())
	}
	if ts := TreeSize(d); ts < float64(int64(1)<<uint(k)) {
		t.Errorf("TreeSize = %v, want ≥ 2^%d", ts, k)
	}
}

func TestUnfold(t *testing.T) {
	d, _, _, sh := chainDAG(t)
	text := func(id NodeID) (string, bool) {
		if id == sh {
			return "leaf", true
		}
		return "", false
	}
	tree, err := d.Unfold(d.Root(), text, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The shared node appears twice in the tree, carrying its text.
	size, count := 0, 0
	var walk func(n *xtree.Node)
	walk = func(n *xtree.Node) {
		size++
		if n.Text == "leaf" {
			count++
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(tree)
	if size != 5 {
		t.Errorf("unfolded size = %d", size)
	}
	if count != 2 {
		t.Errorf("shared node occurrences = %d", count)
	}
	if _, err := d.Unfold(d.Root(), text, 3); err == nil {
		t.Error("budget not enforced")
	}
}

func TestJournalRollbackRestoresState(t *testing.T) {
	d, c1, c2, sh := chainDAG(t)
	before := snapshot(d)
	d.Begin()
	if !d.InTxn() {
		t.Fatal("InTxn")
	}
	n, _ := d.AddNode("C", relational.Tuple{relational.Int(99)})
	d.AddEdge(c1, n)
	d.RemoveEdge(c2, sh)
	d.RemoveNode(c2)
	adds, eAdds, eDels := d.ChangesSince(0)
	if len(adds) != 1 || len(eAdds) != 1 || len(eDels) == 0 {
		t.Errorf("Changes = %v %v %v", adds, eAdds, eDels)
	}
	d.Rollback()
	if got := snapshot(d); got != before {
		t.Errorf("rollback mismatch:\n got %s\nwant %s", got, before)
	}
	if d.Alive(n) {
		t.Error("added node still alive after rollback")
	}
}

// An undone allocation gives its id back: a replica that never saw the
// unwound update allocates the same ids for what follows. An undone
// resurrection keeps its id, dead, under the same identity.
func TestJournalRollbackFreesNewIDs(t *testing.T) {
	d, _, c2, _ := chainDAG(t)
	d.RemoveNode(c2) // dead before the journal opens
	cap0 := d.Cap()
	d.Begin()
	kept, _ := d.AddNode("C", relational.Tuple{relational.Int(90)})
	mark := d.Mark()
	n, _ := d.AddNode("C", relational.Tuple{relational.Int(91)})
	d.AddEdge(kept, n)
	d.RemoveNode(n)
	d.AddNode("C", relational.Tuple{relational.Int(91)}) // resurrects n
	if back, created := d.AddNode("C", relational.Tuple{relational.Int(2)}); !created || back != c2 {
		t.Fatalf("resurrecting c2 = %d, %v; want %d, true", back, created, c2)
	}
	d.RollbackTo(mark)
	if d.Cap() != int(n) || d.Alive(c2) {
		t.Fatalf("after RollbackTo: Cap = %d, want %d; c2 alive = %v", d.Cap(), n, d.Alive(c2))
	}
	if _, ok := d.Lookup("C", relational.Tuple{relational.Int(91)}); ok {
		t.Error("the freed identity is still registered")
	}
	if other, _ := d.AddNode("D", nil); other != n {
		t.Errorf("next allocation = %d, want the freed id %d", other, n)
	}
	d.Rollback()
	if d.Cap() != cap0 {
		t.Errorf("after Rollback: Cap = %d, want %d", d.Cap(), cap0)
	}
	for _, id := range d.IDsOfType("C") {
		if int(id) >= cap0 {
			t.Errorf("type list still holds freed id %d", id)
		}
	}
	if len(d.IDsOfType("D")) != 0 {
		t.Errorf("type list D = %v, want empty", d.IDsOfType("D"))
	}
	if back, created := d.AddNode("C", relational.Tuple{relational.Int(2)}); !created || back != c2 {
		t.Errorf("c2's identity comes back as %d, %v; want %d, true", back, created, c2)
	}
}

func TestJournalCommitKeepsState(t *testing.T) {
	d, c1, _, _ := chainDAG(t)
	d.Begin()
	n, _ := d.AddNode("C", relational.Tuple{relational.Int(99)})
	d.AddEdge(c1, n)
	d.Commit()
	if !d.Alive(n) || !d.HasEdge(c1, n) {
		t.Error("commit lost changes")
	}
}

func TestJournalPanics(t *testing.T) {
	d := New("db")
	mustPanic(t, func() { d.Commit() })
	mustPanic(t, func() { d.Rollback() })
	mustPanic(t, func() { d.ChangesSince(0) })
	d.Begin()
	mustPanic(t, func() { d.Begin() })
	d.Commit()
}

func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	fn()
}

// snapshot serializes live structure for equality checks.
func snapshot(d *DAG) string {
	out := ""
	for _, id := range d.Nodes() {
		out += d.Type(id) + d.Attr(id).Encode() + ":"
		out += fmt.Sprint(d.Children(id))
		out += ";"
	}
	return out
}

// Property: random mutate inside txn + rollback always restores the exact
// structure.
func TestJournalRollbackProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := New("db")
		var ids []NodeID
		ids = append(ids, d.Root())
		for i := 0; i < 15; i++ {
			id, _ := d.AddNode("N", relational.Tuple{relational.Int(int64(i))})
			d.AddEdge(ids[rng.Intn(len(ids))], id)
			ids = append(ids, id)
		}
		before := snapshot(d)
		d.Begin()
		for op := 0; op < 25; op++ {
			switch rng.Intn(4) {
			case 0:
				id, _ := d.AddNode("N", relational.Tuple{relational.Int(int64(100 + op))})
				d.AddEdge(ids[rng.Intn(len(ids))], id)
			case 1:
				u := ids[rng.Intn(len(ids))]
				v := ids[rng.Intn(len(ids))]
				if u < v && d.Alive(u) && d.Alive(v) { // keep acyclic: ids increase downward
					d.AddEdge(u, v)
				}
			case 2:
				u := ids[rng.Intn(len(ids))]
				if d.Alive(u) && len(d.Children(u)) > 0 {
					d.RemoveEdge(u, d.Children(u)[0])
				}
			case 3:
				u := ids[rng.Intn(len(ids))]
				if u != d.Root() && d.Alive(u) {
					d.RemoveNode(u)
				}
			}
		}
		d.Rollback()
		return snapshot(d) == before
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestNodeAccessors(t *testing.T) {
	d, c1, _, _ := chainDAG(t)
	if d.Type(c1) != "C" {
		t.Error("Type")
	}
	if d.Attr(c1)[0].I != 1 {
		t.Error("Attr")
	}
	if d.Alive(InvalidNode) || d.Alive(NodeID(d.Cap())) {
		t.Error("Alive bounds")
	}
	if d.Cap() < d.NumNodes() {
		t.Error("Cap < NumNodes")
	}
}
