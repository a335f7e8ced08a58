package dag_test

import (
	"testing"

	"rxview/internal/dag"
	"rxview/internal/testkit"
)

// The DAG oracles of the test-support package, on the DAG they read.

func TestRemoveNodeAndGC(t *testing.T) {
	d, c1, c2, sh := dag.ChainDAG(t)
	// Cutting db->c1 strands c1, c2, sh.
	d.RemoveEdge(d.Root(), c1)
	removed := testkit.GarbageCollect(d)
	if len(removed) != 3 {
		t.Fatalf("GC removed %v", removed)
	}
	if d.NumNodes() != 1 || d.NumEdges() != 0 {
		t.Errorf("after GC: %d nodes %d edges", d.NumNodes(), d.NumEdges())
	}
	for _, id := range []dag.NodeID{c1, c2, sh} {
		if d.Alive(id) {
			t.Errorf("node %d still alive", id)
		}
	}
	if got := d.NodesOfType("C"); len(got) != 0 {
		t.Errorf("NodesOfType after GC = %v", got)
	}
}

func TestSharedSubtreeSurvivesOneParentRemoval(t *testing.T) {
	d, _, c2, sh := dag.ChainDAG(t)
	// sh has parents c1 and c2; removing (c2, sh) must keep sh (it is
	// still referenced — the paper's CS320 example).
	d.RemoveEdge(c2, sh)
	if removed := testkit.GarbageCollect(d); len(removed) != 0 {
		t.Errorf("GC removed %v", removed)
	}
	if !d.Alive(sh) {
		t.Error("shared node removed while still referenced")
	}
}

func TestCheckAcyclic(t *testing.T) {
	d, c1, c2, _ := dag.ChainDAG(t)
	if err := testkit.CheckAcyclic(d); err != nil {
		t.Fatal(err)
	}
	// Force a cycle c2 -> c1 (bypassing publishing discipline).
	d.AddEdge(c2, c1)
	if err := testkit.CheckAcyclic(d); err == nil {
		t.Error("cycle not detected")
	}
}
