package paper

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rxview/internal/dag"
	"rxview/internal/relational"
	"rxview/internal/testkit"
)

// deleteEdge removes one edge, collects what it strands and steps L over
// the journaled delta: ∆(M,L)delete for L.
func deleteEdge(d *dag.DAG, topo *Topo, u, v dag.NodeID) (cascade []dag.Edge, removed []dag.NodeID) {
	topo.ApplyDelta(d, journaled(d, func() {
		d.RemoveEdge(u, v)
		cascade, removed = d.Collect([]dag.Edge{{Parent: u, Child: v}})
	}))
	return cascade, removed
}

// journaled runs mutate against d inside a DAG journal and returns the ops
// it recorded, in order: the delta a commit hands ApplyDelta.
func journaled(d *dag.DAG, mutate func()) []dag.DeltaOp {
	d.Begin()
	mutate()
	delta := d.DeltaSince(0)
	d.Commit()
	return delta
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
	// Build two chains and connect them so the order must be repaired — the
	// second time with FixEdge's visited stamps about to wrap around.
	for _, walk := range []uint32{0, math.MaxUint32} {
		d, ids := buildDAG(t, [][2]int{{0, 1}, {1, 2}, {0, 3}, {3, 4}})
		topo := ComputeTopo(d)
		topo.seen, topo.walk = make([]uint32, len(topo.pos)), walk
		// New edge 2 -> 3 means 3's group must move before 2.
		d.AddEdge(ids[2], ids[3])
		if err := testkit.CheckAcyclic(d); err != nil {
			t.Fatal(err)
		}
		topo.FixEdge(d, ids[2], ids[3])
		if err := topo.Validate(d); err != nil {
			t.Fatalf("walk %d: %v", walk, err)
		}
	}
}

func TestInsertUpdateFreshSubtree(t *testing.T) {
	d, ids := buildDAG(t, [][2]int{{0, 1}, {1, 2}, {0, 3}})
	topo := ComputeTopo(d)
	// Publish a fresh subtree {10 -> 11, 10 -> 12} and hang it under 2 and 3.
	var n11 dag.NodeID
	topo.ApplyDelta(d, journaled(d, func() {
		n10, _ := d.AddNode("N", relational.Tuple{relational.Int(10)})
		n11, _ = d.AddNode("N", relational.Tuple{relational.Int(11)})
		n12, _ := d.AddNode("N", relational.Tuple{relational.Int(12)})
		for _, e := range [][2]dag.NodeID{{n10, n11}, {n10, n12}, {ids[2], n10}, {ids[3], n10}} {
			d.AddEdge(e[0], e[1])
		}
	}))
	if err := topo.Validate(d); err != nil {
		t.Fatal(err)
	}
	if !reaches(d, ids[0], n11) {
		t.Error("root should reach new leaf")
	}
}

func TestInsertUpdateSharedRoot(t *testing.T) {
	// Inserting an edge to an existing shared node (the CS320-as-prereq
	// case): no new nodes, one new edge between existing nodes.
	d, ids := buildDAG(t, [][2]int{{0, 1}, {0, 2}, {2, 3}})
	topo := ComputeTopo(d)
	topo.ApplyDelta(d, journaled(d, func() { d.AddEdge(ids[1], ids[3]) }))
	if err := topo.Validate(d); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteUpdateSimple(t *testing.T) {
	// 0 -> 1 -> 2; 0 -> 3 -> 2. Delete edge (1,2): 2 keeps ancestor 0 via 3,
	// loses 1.
	d, ids := buildDAG(t, [][2]int{{0, 1}, {1, 2}, {0, 3}, {3, 2}})
	topo := ComputeTopo(d)
	cascade, removed := deleteEdge(d, topo, ids[1], ids[2])
	if len(cascade) != 0 || len(removed) != 0 {
		t.Errorf("cascade=%v removed=%v", cascade, removed)
	}
	if err := topo.Validate(d); err != nil {
		t.Fatal(err)
	}
	if !reaches(d, ids[0], ids[2]) {
		t.Error("surviving ancestry removed")
	}
}

func TestDeleteUpdateCascade(t *testing.T) {
	// 0 -> 1 -> 2 -> 3, and 0 -> 4 -> 3. Deleting edge (0,1) strands 1, 2
	// (cascade) but 3 survives via 4.
	d, ids := buildDAG(t, [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 4}, {4, 3}})
	topo := ComputeTopo(d)
	cascade, removed := deleteEdge(d, topo, ids[0], ids[1])
	if len(removed) != 2 {
		t.Errorf("removed = %v, want nodes 1 and 2", removed)
	}
	if len(cascade) != 2 { // (1,2) and (2,3)
		t.Errorf("cascade = %v", cascade)
	}
	if err := topo.Validate(d); err != nil {
		t.Fatal(err)
	}
	if !d.Alive(ids[3]) {
		t.Error("shared node 3 must survive")
	}
	if !reaches(d, ids[4], ids[3]) {
		t.Error("surviving ancestry via 4 lost")
	}
}

// Property: random edge deletions maintained incrementally leave L a valid
// order of what the collection leaves of the DAG.
func TestDeleteUpdateMatchesRebuild(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randomDAG(t, rng, 25, 20)
		topo := ComputeTopo(d)
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
			deleteEdge(d, topo, u, v)
			if err := topo.Validate(d); err != nil {
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

// Property: random subtree insertions maintained incrementally leave L a
// valid order of the grown DAG.
func TestInsertUpdateMatchesRebuild(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randomDAG(t, rng, 20, 10)
		topo := ComputeTopo(d)
		next := int64(1000)
		for round := 0; round < 4; round++ {
			// Fresh chain of 3 nodes hung under a random existing node,
			// possibly also linking to an existing node as child.
			nodes := d.Nodes()
			target := nodes[rng.Intn(len(nodes))]
			exist := nodes[rng.Intn(len(nodes))]
			delta := journaled(d, func() {
				var first, prev dag.NodeID = -1, -1
				for i := 0; i < 3; i++ {
					id, _ := d.AddNode("N", relational.Tuple{relational.Int(next)})
					next++
					if prev >= 0 {
						d.AddEdge(prev, id)
					} else {
						first = id
					}
					prev = id
				}
				// Link the chain bottom to an existing node to create
				// sharing, but only if that node is not an ancestor of (or
				// equal to) the target — the connection edge target→chain
				// would otherwise close a cycle.
				if exist != d.Root() && exist != target && !reaches(d, exist, target) {
					d.AddEdge(prev, exist)
				}
				// Connection edge last, as Xinsert produces.
				d.AddEdge(target, first)
			})
			if err := testkit.CheckAcyclic(d); err != nil {
				t.Log(err)
				return false
			}
			topo.ApplyDelta(d, delta)
			if err := topo.Validate(d); err != nil {
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

func TestDeleteThenInsertInterleaved(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	d := randomDAG(t, rng, 30, 25)
	topo := ComputeTopo(d)
	next := int64(5000)
	for round := 0; round < 10; round++ {
		if round%2 == 0 {
			nodes := d.Nodes()
			for _, cand := range rng.Perm(len(nodes)) {
				if ch := d.Children(nodes[cand]); len(ch) > 0 {
					deleteEdge(d, topo, nodes[cand], ch[0])
					break
				}
			}
		} else {
			nodes := d.Nodes()
			target := nodes[rng.Intn(len(nodes))]
			topo.ApplyDelta(d, journaled(d, func() {
				id, _ := d.AddNode("N", relational.Tuple{relational.Int(next)})
				d.AddEdge(target, id)
			}))
			next++
		}
		if err := topo.Validate(d); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// TestInsertUpdateDeepChain exercises the L half of ∆(M,L)insert on a deep
// chain hung under the root link by link, every node appended and then
// repaired by FixEdge, and validates the result.
func TestInsertUpdateDeepChain(t *testing.T) {
	const depth = 2_000
	d := dag.New("db")
	topo := ComputeTopo(d)
	topo.ApplyDelta(d, journaled(d, func() {
		prev := d.Root()
		for i := 0; i < depth; i++ {
			id, _ := d.AddNode("N", relational.Tuple{relational.Int(int64(i))})
			d.AddEdge(prev, id)
			prev = id
		}
	}))
	if err := topo.Validate(d); err != nil {
		t.Fatal(err)
	}
	if got := topo.Len(); got != depth+1 {
		t.Errorf("|L| = %d, want %d", got, depth+1)
	}
}
