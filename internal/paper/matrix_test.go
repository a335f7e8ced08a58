package paper

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"rxview/internal/dag"
	"rxview/internal/relational"
	"rxview/internal/testkit"
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
	if err := testkit.CheckAcyclic(d); err != nil {
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

// index is L and M side by side, maintained the way the experiments run
// ∆(M,L): both after the commit, from its journaled delta — L by
// Topo.ApplyDelta, then M by Matrix.ApplyDelta over the stepped L.
type index struct {
	Topo   *Topo
	Matrix *Matrix
}

func buildIndex(d *dag.DAG) *index {
	t := ComputeTopo(d)
	return &index{Topo: t, Matrix: Compute(d, t)}
}

// commit brackets one update the way a commit does: mutate changes the DAG
// inside a journal, and the journaled delta then drives the two maintenance
// entry points.
func (ix *index) commit(d *dag.DAG, mutate func()) {
	d.Begin()
	mutate()
	delta := d.DeltaSince(0)
	d.Commit()
	ix.Topo.ApplyDelta(d, delta)
	ix.Matrix.ApplyDelta(d, ix.Topo, delta)
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

func TestBuildIndexValidate(t *testing.T) {
	d, _ := buildDAG(t, [][2]int{{0, 1}, {1, 2}, {1, 3}, {2, 4}, {3, 4}})
	ix := buildIndex(d)
	if err := ix.Validate(d); err != nil {
		t.Fatal(err)
	}
}
