package reach

import (
	"testing"

	"rxview/internal/dag"
	"rxview/internal/relational"
)

func intTuple(n int) relational.Tuple {
	return relational.Tuple{relational.Int(int64(n))}
}

// buildCloneFixture publishes a small diamond-with-tail DAG and its order.
func buildCloneFixture(t *testing.T) (*dag.DAG, *Topo) {
	t.Helper()
	d := dag.New("r")
	var ids []dag.NodeID
	for i := 0; i < 6; i++ {
		id, _ := d.AddNode("n", intTuple(i))
		ids = append(ids, id)
	}
	edges := [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}, {4, 5}}
	d.AddEdge(d.Root(), ids[0])
	for _, e := range edges {
		d.AddEdge(ids[e[0]], ids[e[1]])
	}
	return d, ComputeTopo(d)
}

// TestTopoCloneIndependence checks that the clone equals the original at
// clone time and that the original's later mutations do not reach it.
func TestTopoCloneIndependence(t *testing.T) {
	d, topo := buildCloneFixture(t)
	snap := topo.Clone()
	want := snap.Nodes()

	victim := want[0]
	topo.Delete(victim)
	if !snap.Contains(victim) {
		t.Error("deleting from the original removed the node from the clone")
	}
	// The DAG still holds every node (only the original order lost one),
	// so the clone must still validate against it.
	if err := snap.Validate(d); err != nil {
		t.Errorf("cloned order no longer validates: %v", err)
	}
	got := snap.Nodes()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("clone order changed at %d: %v vs %v", i, got, want)
		}
	}
}
