package paper

import (
	"math/rand"
	"testing"

	"rxview/internal/dag"
)

// benchDAG builds a connected random DAG with extra cross edges — the shape
// the synthetic workload produces (shared subtrees, moderate depth).
func benchDAG(b *testing.B, n, extra int) *dag.DAG {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	return randomDAG(b, rng, n, extra)
}

func cloneSparse(s *Sparse) *Sparse {
	out := NewSparse(len(s.anc))
	for d := range s.anc {
		for a := range s.anc[d] {
			out.AddPair(a, dag.NodeID(d))
		}
	}
	return out
}

// BenchmarkMatrixCompute compares the from-scratch build of M under the
// same Algorithm Reach dynamic program over the same precomputed L: row
// unions (bitset) against per-pair map inserts (sparse) — the pure
// representation gap. The per-node DFS oracle is included as a third
// variant for reference (a different algorithm, not a fair comparison).
func BenchmarkMatrixCompute(b *testing.B) {
	d := benchDAG(b, 2000, 2000)
	topo := ComputeTopo(d)
	b.Run("bitset", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Compute(d, topo)
		}
	})
	b.Run("sparse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ComputeSparseReach(d, topo)
		}
	})
	b.Run("sparse-dfs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ComputeSparse(d)
		}
	})
}

// BenchmarkMatrixDescQuery measures the //-expansion kernel of the frontier
// evaluator: union the descendant sets of a 64-node frontier into one
// closure set, then test membership for every node — row unions + bit reads
// (bitset) against map iteration into a []bool (sparse).
func BenchmarkMatrixDescQuery(b *testing.B) {
	d := benchDAG(b, 2000, 2000)
	topo := ComputeTopo(d)
	m := Compute(d, topo)
	sp := ComputeSparse(d)
	frontier := d.Nodes()[:64]

	b.Run("bitset", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			closure := NewRow(d.Cap())
			for _, v := range frontier {
				closure.Set(v)
				closure.Or(m.DescendantRow(v))
			}
			if closure.Count() == 0 {
				b.Fatal("empty closure")
			}
		}
	})
	b.Run("sparse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			closure := make([]bool, d.Cap())
			count := 0
			for _, v := range frontier {
				if !closure[v] {
					closure[v] = true
					count++
				}
				for dd := range sp.Descendants(v) {
					if !closure[dd] {
						closure[dd] = true
						count++
					}
				}
			}
			if count == 0 {
				b.Fatal("empty closure")
			}
		}
	})
}

// benchNewEdges picks edges absent from the DAG that respect the topological
// order (parent later in L than child), so inserting them keeps it acyclic.
func benchNewEdges(d *dag.DAG, topo *Topo, k int) []dag.Edge {
	rng := rand.New(rand.NewSource(11))
	nodes := d.Nodes()
	var out []dag.Edge
	for len(out) < k {
		u := nodes[rng.Intn(len(nodes))]
		v := nodes[rng.Intn(len(nodes))]
		if u == v || topo.Pos(v) >= topo.Pos(u) || d.HasEdge(u, v) {
			continue
		}
		out = append(out, dag.Edge{Parent: u, Child: v})
	}
	return out
}

// BenchmarkMaintainInsertClosure times the matrix half of ∆(M,L)insert for a
// batch of 64 new edges: InsertEdgeClosure's row unions against the sparse
// representation's sorted-list × sorted-list per-pair inserts (the exact
// code the bitset Matrix replaced).
func BenchmarkMaintainInsertClosure(b *testing.B) {
	d := benchDAG(b, 2000, 2000)
	topo := ComputeTopo(d)
	baseSparse := ComputeSparse(d)
	edges := benchNewEdges(d, topo, 64)

	b.Run("bitset", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			m := Compute(d, topo)
			b.StartTimer()
			for _, e := range edges {
				m.InsertEdgeClosure(e.Parent, e.Child)
			}
		}
	})
	b.Run("sparse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s := cloneSparse(baseSparse)
			b.StartTimer()
			for _, e := range edges {
				s.InsertEdgeClosure(e.Parent, e.Child)
			}
		}
	})
}

// BenchmarkMaintainDelete times the M half of ∆(M,L)delete end to end — the
// delta-driven path: affected-set collection, A_d row unions, RetainAncestors
// subtract, per removed edge, and DropNode per collected node — for one
// high-fanout edge removal. The garbage collection (dag.DAG.Collect), which
// produces the delta, and L's half (Topo.ApplyDelta) run untimed.
func BenchmarkMaintainDelete(b *testing.B) {
	proto := benchDAG(b, 2000, 2000)
	// Pick the live edge whose child has the largest descendant set.
	mp := Compute(proto, ComputeTopo(proto))
	var bu, bv dag.NodeID = -1, -1
	best := -1
	for _, u := range proto.Nodes() {
		for _, v := range proto.Children(u) {
			if c := mp.DescendantCount(v); c > best {
				best, bu, bv = c, u, v
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := benchDAG(b, 2000, 2000)
		topo := ComputeTopo(d)
		m := Compute(d, topo)
		d.Begin()
		d.RemoveEdge(bu, bv)
		d.Collect([]dag.Edge{{Parent: bu, Child: bv}})
		delta := d.DeltaSince(0)
		d.Commit()
		topo.ApplyDelta(d, delta)
		b.StartTimer()
		m.ApplyDelta(d, topo, delta)
	}
}
