package reach

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"rxview/internal/dag"
	"rxview/internal/relational"
)

// buildDAG constructs a DAG from an edge list over integer-keyed nodes;
// node 0 is the root. Edges must point from smaller conceptual depth to
// larger, but ids are arbitrary as long as the graph is acyclic.
func buildDAG(t testing.TB, edges [][2]int) (*dag.DAG, map[int]dag.NodeID) {
	t.Helper()
	d := dag.New("db")
	ids := map[int]dag.NodeID{0: d.Root()}
	node := func(k int) dag.NodeID {
		if id, ok := ids[k]; ok {
			return id
		}
		id, _ := d.AddNode("N", relational.Tuple{relational.Int(int64(k))})
		ids[k] = id
		return id
	}
	for _, e := range edges {
		u, v := node(e[0]), node(e[1])
		d.AddEdge(u, v)
	}
	if err := d.CheckAcyclic(); err != nil {
		t.Fatal(err)
	}
	return d, ids
}

// randomDAG generates an acyclic graph: node i may point to nodes j > i.
func randomDAG(t testing.TB, rng *rand.Rand, n, extraEdges int) *dag.DAG {
	t.Helper()
	var edges [][2]int
	for i := 1; i < n; i++ {
		// Ensure connectivity: each node gets a parent among 0..i-1.
		edges = append(edges, [2]int{rng.Intn(i), i})
	}
	for k := 0; k < extraEdges; k++ {
		u := rng.Intn(n - 1)
		v := u + 1 + rng.Intn(n-u-1)
		edges = append(edges, [2]int{u, v})
	}
	d, _ := buildDAG(t, edges)
	return d
}

// index is L and M side by side, maintained the way the system and the
// experiments split ∆(M,L): L on the spot by Topo's methods, M afterwards by
// Matrix.ApplyDelta from the journaled delta of the same update.
type index struct {
	Topo   *Topo
	Matrix *Matrix
}

func buildIndex(d *dag.DAG) *index {
	t := ComputeTopo(d)
	return &index{Topo: t, Matrix: Compute(d, t)}
}

// commit brackets one update the way a commit does: mutate changes the DAG
// and L inside a journal, and the journaled delta then drives the matrix's
// one maintenance entry point.
func (ix *index) commit(d *dag.DAG, mutate func()) {
	d.Begin()
	mutate()
	delta := d.DeltaSince(0)
	d.Commit()
	ix.Matrix.ApplyDelta(d, ix.Topo, delta)
}

// deleteEdge removes one edge through the full deletion path.
func (ix *index) deleteEdge(d *dag.DAG, u, v dag.NodeID) (cascade []dag.Edge, removed []dag.NodeID) {
	ix.commit(d, func() {
		d.RemoveEdge(u, v)
		cascade, removed = ix.Topo.DeleteUpdate(d, []dag.Edge{{Parent: u, Child: v}})
	})
	return cascade, removed
}

// Validate checks both structures against the DAG: L is a topological order
// covering the live nodes, and M — mirror included — equals the recomputed
// transitive closure.
func (ix *index) Validate(d *dag.DAG) error {
	if err := ix.Topo.Validate(d); err != nil {
		return err
	}
	if err := ix.Matrix.ValidateMirror(); err != nil {
		return err
	}
	if want := Compute(d, ix.Topo); !ix.Matrix.Equal(want) {
		return fmt.Errorf("reach: matrix mismatch: %s", ix.Matrix.Diff(want))
	}
	return nil
}

func TestComputeTopoOrder(t *testing.T) {
	d, _ := buildDAG(t, [][2]int{{0, 1}, {1, 2}, {1, 3}, {2, 4}, {3, 4}})
	topo := ComputeTopo(d)
	if err := topo.Validate(d); err != nil {
		t.Fatal(err)
	}
	if topo.Len() != 5 {
		t.Errorf("Len = %d", topo.Len())
	}
	// Descendants first: the diamond bottom (4) must precede 2, 3, 1, 0.
	nodes := topo.Nodes()
	if len(nodes) == 0 || d.Type(nodes[len(nodes)-1]) != "db" {
		t.Error("root must be last (ancestor-most)")
	}
}

func TestComputeMatchesNaive(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randomDAG(t, rng, 30, 25)
		topo := ComputeTopo(d)
		m := Compute(d, topo)
		return m.Equal(ComputeNaive(d))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMatrixBasics(t *testing.T) {
	d, ids := buildDAG(t, [][2]int{{0, 1}, {1, 2}, {1, 3}, {2, 4}, {3, 4}})
	m := Compute(d, ComputeTopo(d))
	root, n4 := ids[0], ids[4]
	if !m.IsAncestor(root, n4) {
		t.Error("root should be ancestor of 4")
	}
	if m.IsAncestor(n4, root) {
		t.Error("4 is not an ancestor of root")
	}
	if m.IsAncestor(root, root) {
		t.Error("self pairs are not stored")
	}
	// anc(4) = {0,1,2,3}, desc(0) = {1,2,3,4}
	if got := m.AncestorCount(n4); got != 4 {
		t.Errorf("|anc(4)| = %d", got)
	}
	if got := m.DescendantCount(root); got != 4 {
		t.Errorf("|desc(0)| = %d", got)
	}
	// |M|: anc sizes: n1:1, n2:2, n3:2, n4:4 => 9
	if m.Size() != 9 {
		t.Errorf("|M| = %d", m.Size())
	}
	if got := m.AncestorList(n4); len(got) != 4 || got[0] != root {
		t.Errorf("AncestorList = %v", got)
	}
}

func TestMatrixAddRemoveDrop(t *testing.T) {
	m := NewMatrix(4)
	m.AddPair(0, 1)
	m.AddPair(0, 1) // dup ignored
	m.AddPair(0, 2)
	m.AddPair(1, 2)
	if m.Size() != 3 {
		t.Errorf("Size = %d", m.Size())
	}
	m.RemovePair(0, 1)
	m.RemovePair(0, 1) // absent ignored
	if m.Size() != 2 || m.IsAncestor(0, 1) {
		t.Error("RemovePair")
	}
	m.AddPair(3, 3) // self ignored
	if m.Size() != 2 {
		t.Error("self pair stored")
	}
	m.DropNode(2)
	if m.Size() != 0 {
		t.Errorf("after DropNode Size = %d", m.Size())
	}
	// Out-of-range queries are safe.
	if m.IsAncestor(99, 98) {
		t.Error("out of range")
	}
	m.RemovePair(99, 98)
	m.DropNode(99)
}

func TestMatrixEqualAndDiff(t *testing.T) {
	a, b := NewMatrix(4), NewMatrix(4)
	a.AddPair(0, 1)
	b.AddPair(0, 1)
	if !a.Equal(b) {
		t.Error("equal matrices")
	}
	b.AddPair(0, 2)
	if a.Equal(b) || b.Equal(a) {
		t.Error("different matrices")
	}
	if b.Diff(a) == "" {
		t.Error("Diff should describe")
	}
}

func TestTopoAppendDeleteCompact(t *testing.T) {
	d, ids := buildDAG(t, [][2]int{{0, 1}, {1, 2}})
	topo := ComputeTopo(d)
	if !topo.Contains(ids[2]) {
		t.Error("Contains")
	}
	if topo.Pos(dag.NodeID(-5)) != -1 || topo.Pos(dag.NodeID(999)) != -1 {
		t.Error("Pos out of range")
	}
	// Delete and re-append many to force compaction.
	for i := 0; i < 200; i++ {
		id, _ := d.AddNode("N", relational.Tuple{relational.Int(int64(100 + i))})
		d.AddEdge(ids[2], id)
		topo.Append(id)
		topo.FixEdge(d, ids[2], id)
	}
	for _, id := range d.Nodes() {
		if d.Type(id) == "N" && len(d.Parents(id)) == 1 && d.Parents(id)[0] == ids[2] {
			d.RemoveEdge(ids[2], id)
			d.RemoveNode(id)
			topo.Delete(id)
		}
	}
	if err := topo.Validate(d); err != nil {
		t.Fatal(err)
	}
	if topo.Len() != 3 {
		t.Errorf("Len = %d", topo.Len())
	}
}

func TestFixEdgeRepairsOrder(t *testing.T) {
	// Build two chains and connect them so the order must be repaired.
	d, ids := buildDAG(t, [][2]int{{0, 1}, {1, 2}, {0, 3}, {3, 4}})
	topo := ComputeTopo(d)
	// New edge 2 -> 3 means 3's group must move before 2.
	d.AddEdge(ids[2], ids[3])
	if err := d.CheckAcyclic(); err != nil {
		t.Fatal(err)
	}
	topo.FixEdge(d, ids[2], ids[3])
	if err := topo.Validate(d); err != nil {
		t.Fatal(err)
	}
}

func TestSortHelpers(t *testing.T) {
	d, ids := buildDAG(t, [][2]int{{0, 1}, {1, 2}})
	topo := ComputeTopo(d)
	nodes := []dag.NodeID{ids[0], ids[2], ids[1]}
	topo.SortDescending(nodes)
	if nodes[0] != ids[0] || nodes[2] != ids[2] {
		t.Errorf("descending = %v", nodes)
	}
	topo.SortAscending(nodes)
	if nodes[0] != ids[2] || nodes[2] != ids[0] {
		t.Errorf("ascending = %v", nodes)
	}
}

func TestBuildIndexValidate(t *testing.T) {
	d, _ := buildDAG(t, [][2]int{{0, 1}, {1, 2}, {1, 3}, {2, 4}, {3, 4}})
	ix := buildIndex(d)
	if err := ix.Validate(d); err != nil {
		t.Fatal(err)
	}
}

func TestInsertUpdateFreshSubtree(t *testing.T) {
	d, ids := buildDAG(t, [][2]int{{0, 1}, {1, 2}, {0, 3}})
	ix := buildIndex(d)
	// Publish a fresh subtree {10 -> 11, 10 -> 12} and hang it under 2 and 3.
	var n11 dag.NodeID
	ix.commit(d, func() {
		n10, _ := d.AddNode("N", relational.Tuple{relational.Int(10)})
		n11, _ = d.AddNode("N", relational.Tuple{relational.Int(11)})
		n12, _ := d.AddNode("N", relational.Tuple{relational.Int(12)})
		newEdges := []dag.Edge{}
		for _, e := range [][2]dag.NodeID{{n10, n11}, {n10, n12}, {ids[2], n10}, {ids[3], n10}} {
			d.AddEdge(e[0], e[1])
			newEdges = append(newEdges, dag.Edge{Parent: e[0], Child: e[1]})
		}
		ix.Topo.InsertUpdate(d, []dag.NodeID{n10, n11, n12}, newEdges)
	})
	if err := ix.Validate(d); err != nil {
		t.Fatal(err)
	}
	if !ix.Matrix.IsAncestor(ids[0], n11) {
		t.Error("root should reach new leaf")
	}
}

func TestInsertUpdateSharedRoot(t *testing.T) {
	// Inserting an edge to an existing shared node (the CS320-as-prereq
	// case): no new nodes, one new edge between existing nodes.
	d, ids := buildDAG(t, [][2]int{{0, 1}, {0, 2}, {2, 3}})
	ix := buildIndex(d)
	ix.commit(d, func() {
		d.AddEdge(ids[1], ids[3])
		ix.Topo.InsertUpdate(d, nil, []dag.Edge{{Parent: ids[1], Child: ids[3]}})
	})
	if err := ix.Validate(d); err != nil {
		t.Fatal(err)
	}
	if !ix.Matrix.IsAncestor(ids[1], ids[3]) {
		t.Error("new ancestry missing")
	}
}

func TestDeleteUpdateSimple(t *testing.T) {
	// 0 -> 1 -> 2; 0 -> 3 -> 2. Delete edge (1,2): 2 keeps ancestor 0 via 3,
	// loses 1.
	d, ids := buildDAG(t, [][2]int{{0, 1}, {1, 2}, {0, 3}, {3, 2}})
	ix := buildIndex(d)
	cascade, removed := ix.deleteEdge(d, ids[1], ids[2])
	if len(cascade) != 0 || len(removed) != 0 {
		t.Errorf("cascade=%v removed=%v", cascade, removed)
	}
	if err := ix.Validate(d); err != nil {
		t.Fatal(err)
	}
	if ix.Matrix.IsAncestor(ids[1], ids[2]) {
		t.Error("stale ancestor pair")
	}
	if !ix.Matrix.IsAncestor(ids[0], ids[2]) {
		t.Error("surviving ancestry removed")
	}
}

func TestDeleteUpdateCascade(t *testing.T) {
	// 0 -> 1 -> 2 -> 3, and 0 -> 4 -> 3. Deleting edge (0,1) strands 1, 2
	// (cascade) but 3 survives via 4.
	d, ids := buildDAG(t, [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 4}, {4, 3}})
	ix := buildIndex(d)
	cascade, removed := ix.deleteEdge(d, ids[0], ids[1])
	if len(removed) != 2 {
		t.Errorf("removed = %v, want nodes 1 and 2", removed)
	}
	if len(cascade) != 2 { // (1,2) and (2,3)
		t.Errorf("cascade = %v", cascade)
	}
	if err := ix.Validate(d); err != nil {
		t.Fatal(err)
	}
	if !d.Alive(ids[3]) {
		t.Error("shared node 3 must survive")
	}
	if !ix.Matrix.IsAncestor(ids[4], ids[3]) {
		t.Error("surviving ancestry via 4 lost")
	}
}

// Property: random edge deletions maintained incrementally match a from-
// scratch rebuild (the paper's Table 1 comparison, as a correctness check).
func TestDeleteUpdateMatchesRebuild(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randomDAG(t, rng, 25, 20)
		ix := buildIndex(d)
		for round := 0; round < 5; round++ {
			// Pick a random live edge.
			nodes := d.Nodes()
			var u, v dag.NodeID = -1, -1
			for _, cand := range rng.Perm(len(nodes)) {
				if ch := d.Children(nodes[cand]); len(ch) > 0 {
					u = nodes[cand]
					v = ch[rng.Intn(len(ch))]
					break
				}
			}
			if u < 0 {
				break
			}
			ix.deleteEdge(d, u, v)
			if err := ix.Validate(d); err != nil {
				t.Logf("seed %d round %d: %v", seed, round, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: random subtree insertions maintained incrementally match a
// rebuild.
func TestInsertUpdateMatchesRebuild(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randomDAG(t, rng, 20, 10)
		ix := buildIndex(d)
		next := int64(1000)
		ok := true
		for round := 0; round < 4 && ok; round++ {
			// Fresh chain of 3 nodes hung under a random existing node,
			// possibly also linking to an existing node as child.
			nodes := d.Nodes()
			target := nodes[rng.Intn(len(nodes))]
			ix.commit(d, func() {
				var newNodes []dag.NodeID
				var newEdges []dag.Edge
				var prev dag.NodeID = -1
				for i := 0; i < 3; i++ {
					id, _ := d.AddNode("N", relational.Tuple{relational.Int(next)})
					next++
					newNodes = append(newNodes, id)
					if prev >= 0 {
						d.AddEdge(prev, id)
						newEdges = append(newEdges, dag.Edge{Parent: prev, Child: id})
					}
					prev = id
				}
				// Link the chain bottom to an existing node to create
				// sharing, but only if that node is not an ancestor of (or
				// equal to) the target — the connection edge target→chain
				// would otherwise close a cycle.
				exist := nodes[rng.Intn(len(nodes))]
				if exist != d.Root() && exist != target && !ix.Matrix.IsAncestor(exist, target) {
					if d.AddEdge(prev, exist) {
						newEdges = append(newEdges, dag.Edge{Parent: prev, Child: exist})
					}
				}
				// Connection edge last, as Xinsert produces.
				d.AddEdge(target, newNodes[0])
				newEdges = append(newEdges, dag.Edge{Parent: target, Child: newNodes[0]})
				if err := d.CheckAcyclic(); err != nil {
					t.Log(err)
					ok = false
				}
				ix.Topo.InsertUpdate(d, newNodes, newEdges)
			})
			if err := ix.Validate(d); err != nil {
				t.Logf("seed %d round %d: %v", seed, round, err)
				return false
			}
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestDeleteThenInsertInterleaved(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	d := randomDAG(t, rng, 30, 25)
	ix := buildIndex(d)
	next := int64(5000)
	for round := 0; round < 10; round++ {
		if round%2 == 0 {
			nodes := d.Nodes()
			for _, cand := range rng.Perm(len(nodes)) {
				if ch := d.Children(nodes[cand]); len(ch) > 0 {
					ix.deleteEdge(d, nodes[cand], ch[0])
					break
				}
			}
		} else {
			nodes := d.Nodes()
			target := nodes[rng.Intn(len(nodes))]
			ix.commit(d, func() {
				id, _ := d.AddNode("N", relational.Tuple{relational.Int(next)})
				d.AddEdge(target, id)
				ix.Topo.InsertUpdate(d, []dag.NodeID{id}, []dag.Edge{{Parent: target, Child: id}})
			})
			next++
		}
		if err := ix.Validate(d); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}
