package paper

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"rxview/internal/dag"
	"rxview/internal/relational"
)

// checkAgainstOracles validates the maintained pair two ways: index.Validate
// (L invariants, the mirror, M against the bitset recompute) and a comparison
// with the sparse map-of-maps oracle built by an independent per-node DFS —
// the two representations share nothing but the DAG. Algorithm Reach run
// over the delta-stepped L must find the oracle's pairs too: an L that is
// no order of the DAG loses pairs there.
func checkAgainstOracles(t testing.TB, d *dag.DAG, ix *index) error {
	t.Helper()
	if err := ix.Validate(d); err != nil {
		return err
	}
	sp := ComputeSparse(d)
	if !ix.Matrix.EqualSparse(sp) {
		return fmt.Errorf("sparse oracle: %s", ix.Matrix.DiffSparse(sp))
	}
	if m := Compute(d, ix.Topo); !m.EqualSparse(sp) {
		return fmt.Errorf("reachable pairs over L: %s", m.DiffSparse(sp))
	}
	return nil
}

// reaches reports whether a path from → … → to exists, by plain DFS.
func reaches(d *dag.DAG, from, to dag.NodeID) bool {
	seen := map[dag.NodeID]bool{from: true}
	stack := []dag.NodeID{from}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if x == to {
			return true
		}
		for _, c := range d.Children(x) {
			if !seen[c] {
				seen[c] = true
				stack = append(stack, c)
			}
		}
	}
	return false
}

// TestMatrixMatchesSparseOracle is the differential test of ∆(M,L)'s two
// maintenance entry points. It drives a DAG through randomized commits —
// each a group of one to three units: an edge removal with its garbage
// collection, a fresh (or resurrected) leaf, a new edge between existing
// nodes that may force L to reorder — and after every commit feeds the
// journaled delta to Topo.ApplyDelta and Matrix.ApplyDelta, holds L to
// Validate and checks M, and Algorithm Reach over L, against both oracles.
// Mixed groups are the point: the ApplyDeltas see every op only after the
// whole group was applied to the DAG, so swap(L, u, v) walks edges a later
// op added, a removal is repaired against parents that a later op of the
// same group added, and a node may die and come back under its old id
// inside one delta.
func TestMatrixMatchesSparseOracle(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randomDAG(t, rng, 20, 15)
		ix := buildIndex(d)
		if err := checkAgainstOracles(t, d, ix); err != nil {
			t.Logf("seed %d initial: %v", seed, err)
			return false
		}
		next := int64(10_000)
		var freed []int64 // keys of collected nodes, to resurrect
		unit := func() {
			nodes := d.Nodes()
			switch rng.Intn(3) {
			case 0: // remove a random live edge and collect what it strands
				for _, cand := range rng.Perm(len(nodes)) {
					if ch := d.Children(nodes[cand]); len(ch) > 0 {
						u, v := nodes[cand], ch[rng.Intn(len(ch))]
						d.RemoveEdge(u, v)
						_, removed := d.Collect([]dag.Edge{{Parent: u, Child: v}})
						for _, id := range removed {
							freed = append(freed, d.Attr(id)[0].I)
						}
						return
					}
				}
			case 1: // a leaf under a random node: a collected identity if there is one
				key := next
				if len(freed) > 0 && rng.Intn(2) == 0 {
					key, freed = freed[len(freed)-1], freed[:len(freed)-1]
				} else {
					next++
				}
				id, created := d.AddNode("N", relational.Tuple{relational.Int(key)})
				if !created {
					return
				}
				target := nodes[rng.Intn(len(nodes))]
				d.AddEdge(target, id)
			default: // share an existing node under a second parent
				u, v := nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]
				if v != d.Root() && !reaches(d, v, u) {
					d.AddEdge(u, v)
				}
			}
		}
		for round := 0; round < 16; round++ {
			ix.commit(d, func() {
				for k := 1 + rng.Intn(3); k > 0; k-- {
					unit()
				}
			})
			if err := checkAgainstOracles(t, d, ix); err != nil {
				t.Logf("seed %d round %d: %v", seed, round, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestComputeMatchesSparse pins the from-scratch builders to the sparse DFS
// oracle on random DAGs (Compute's row unions and ComputeNaive's bitset DFS
// against per-pair map inserts).
func TestComputeMatchesSparse(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randomDAG(t, rng, 30, 25)
		sp := ComputeSparse(d)
		m := Compute(d, ComputeTopo(d))
		if !m.EqualSparse(sp) {
			t.Logf("seed %d Compute: %s", seed, m.DiffSparse(sp))
			return false
		}
		nv := ComputeNaive(d)
		if !nv.EqualSparse(sp) {
			t.Logf("seed %d ComputeNaive: %s", seed, nv.DiffSparse(sp))
			return false
		}
		dp := ComputeSparseReach(d, ComputeTopo(d))
		if !m.EqualSparse(dp) {
			t.Logf("seed %d ComputeSparseReach: %s", seed, m.DiffSparse(dp))
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestRowOps(t *testing.T) {
	var r Row
	if r.Contains(0) || !r.Empty() || r.Count() != 0 {
		t.Error("nil row is not empty")
	}
	if !r.Set(5) || r.Set(5) {
		t.Error("Set idempotence")
	}
	r.Set(64)
	r.Set(200)
	if r.Count() != 3 || !r.Contains(200) || r.Contains(199) {
		t.Errorf("row = %v", r.Slice())
	}
	if got := r.Slice(); len(got) != 3 || got[0] != 5 || got[2] != 200 {
		t.Errorf("Slice = %v", got)
	}
	var o Row
	o.Set(5)
	o.Set(63)
	if added := r.Or(o); added != 1 || r.Count() != 4 {
		t.Errorf("Or added %d, count %d", added, r.Count())
	}
	if !r.AnyNotIn(o) {
		t.Error("AnyNotIn: 64 and 200 are outside o")
	}
	mask := r.Clone()
	if r.AnyNotIn(mask) {
		t.Error("AnyNotIn against itself")
	}
	if removed := r.AndNot(o); removed != 2 || r.Contains(5) || r.Contains(63) {
		t.Errorf("AndNot removed %d", removed)
	}
	if !r.Unset(64) || r.Unset(64) {
		t.Error("Unset idempotence")
	}
	if r.Contains(-1) {
		t.Error("negative id")
	}
	r.Reset()
	if !r.Empty() {
		t.Error("Reset")
	}
	// Rows of different lengths compare correctly.
	a, b := NewRow(64), NewRow(512)
	a.Set(3)
	b.Set(3)
	if !a.EqualRow(b) || !b.EqualRow(a) {
		t.Error("EqualRow across lengths")
	}
	b.Set(400)
	if a.EqualRow(b) {
		t.Error("EqualRow must see the extra bit")
	}
}
