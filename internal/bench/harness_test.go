package bench

import (
	"testing"

	"rxview/internal/workload"
)

// Smoke tests: every experiment runner completes at a small scale and
// produces sane shapes. The real numbers come from bench_test.go /
// cmd/benchrunner.

func TestRunWorkloadAllClasses(t *testing.T) {
	for _, class := range []workload.Class{workload.W1, workload.W2, workload.W3} {
		for _, deletes := range []bool{true, false} {
			res, err := RunWorkload(150, class, deletes, 2, 7)
			if err != nil {
				t.Fatalf("%v deletes=%v: %v", class, deletes, err)
			}
			if res.Applied == 0 {
				t.Errorf("%v deletes=%v: nothing applied", class, deletes)
			}
			if res.Phases.Total() <= 0 {
				t.Errorf("%v: no time recorded", class)
			}
		}
	}
}

func TestDatasetStats(t *testing.T) {
	st, topoLen, pairs, took, err := DatasetStats(200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Nodes == 0 || topoLen != st.Nodes || pairs == 0 || took <= 0 {
		t.Errorf("stats = %+v |L| = %d |M| = %d took %v", st, topoLen, pairs, took)
	}
}

func TestVarySelection(t *testing.T) {
	out, err := VarySelection(200, []int{1, 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("points = %d", len(out))
	}
	for _, p := range out {
		if p.EP == 0 {
			t.Errorf("point %d: no edges measured", p.Targets)
		}
	}
}

func TestVarySubtree(t *testing.T) {
	out, err := VarySubtree(200, []int{0, 4}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("points = %d", len(out))
	}
	if out[1].STEdges <= out[0].STEdges {
		t.Errorf("subtree size did not grow: %d then %d", out[0].STEdges, out[1].STEdges)
	}
}

func TestTable1(t *testing.T) {
	res, err := Table1(200, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.RecomputeM <= 0 || res.RecomputeL <= 0 {
		t.Errorf("res = %+v", res)
	}
}

func TestReachAblation(t *testing.T) {
	fig4, naive, pairs, err := ReachAblation(200, 5)
	if err != nil {
		t.Fatal(err)
	}
	if pairs == 0 || fig4 <= 0 || naive <= 0 {
		t.Errorf("fig4=%v naive=%v pairs=%d", fig4, naive, pairs)
	}
}

func TestDAGvsTree(t *testing.T) {
	dagT, treeT, dagN, treeN, err := DAGvsTree(200, 6)
	if err != nil {
		t.Fatal(err)
	}
	if treeN <= dagN {
		t.Errorf("tree %d should exceed DAG %d", treeN, dagN)
	}
	if dagT <= 0 || treeT <= 0 {
		t.Error("no time recorded")
	}
}

func TestMinDeleteAblation(t *testing.T) {
	gT, eT, gN, eN, err := MinDeleteAblation(200, 7)
	if err != nil {
		t.Fatal(err)
	}
	if eN > gN {
		t.Errorf("exact %d worse than greedy %d", eN, gN)
	}
	if gT <= 0 || eT <= 0 {
		t.Error("no time recorded")
	}
}

func TestEvalStrategyAblation(t *testing.T) {
	sweep, frontier, anchored, err := EvalStrategyAblation(200, 8)
	if err != nil {
		t.Fatal(err) // includes: selections disagree, or the path did not anchor
	}
	if sweep <= 0 || frontier <= 0 || anchored <= 0 {
		t.Errorf("sweep=%v frontier=%v anchored=%v", sweep, frontier, anchored)
	}
}
