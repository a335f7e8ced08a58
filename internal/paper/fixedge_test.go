package paper

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"rxview/internal/dag"
	"rxview/internal/relational"
	"rxview/internal/testkit"
)

// fixEdgeReference is the swap(L, u, v) FixEdge used to be: the window
// rebuilt through three window-sized slices — the descendants of v, the
// rest, and the two concatenated. The reference of the differential test.
func fixEdgeReference(t *Topo, d *dag.DAG, u, v dag.NodeID) {
	pu, pv := t.pos[u], t.pos[v]
	if pv < pu {
		return
	}
	lo, hi := pu, pv
	mark, seen := make([]bool, d.Cap()), make([]bool, d.Cap())
	stack := []dag.NodeID{v}
	seen[v] = true
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if p := t.pos[x]; p >= lo && p <= hi {
			mark[x] = true
		}
		for _, c := range d.Children(x) {
			if !seen[c] {
				seen[c] = true
				stack = append(stack, c)
			}
		}
	}
	segment := make([]dag.NodeID, 0, hi-lo+1)
	var descs, others []dag.NodeID
	for i := lo; i <= hi; i++ {
		id := t.list[i]
		if id != dag.InvalidNode && mark[id] {
			descs = append(descs, id)
		} else {
			others = append(others, id)
		}
	}
	segment = append(segment, descs...)
	segment = append(segment, others...)
	for i, id := range segment {
		t.list[int(lo)+i] = id
		if id != dag.InvalidNode {
			t.pos[id] = lo + int32(i)
		}
	}
}

// rawOrder renders L entry by entry, tombstones included, and the position
// index next to it.
func rawOrder(t *Topo) string { return fmt.Sprint(t.list, t.pos) }

// cloneTopo returns an independent copy of t.
func cloneTopo(t *Topo) *Topo {
	return &Topo{list: slices.Clone(t.list), pos: slices.Clone(t.pos), holes: t.holes}
}

// TestFixEdgeMatchesThreeSlicePartition: the in-place window permutation
// leaves L — tombstones and position index included — exactly as the
// three-slice partition did, over random windows of a random DAG that
// deletions have left full of holes.
func TestFixEdgeMatchesThreeSlicePartition(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := randomDAG(t, rng, 120, 80)
		topo := ComputeTopo(d)
		// Tombstones: leaves (with their in-edges) removed, too few for a
		// compaction.
		nodes := d.Nodes()
		for holes := 0; holes < 25; {
			id := nodes[rng.Intn(len(nodes))]
			if id == d.Root() || !d.Alive(id) || len(d.Children(id)) > 0 {
				continue
			}
			for _, p := range append([]dag.NodeID(nil), d.Parents(id)...) {
				d.RemoveEdge(p, id)
			}
			d.RemoveNode(id)
			topo.Delete(id)
			holes++
		}
		if topo.holes == 0 {
			t.Fatal("no tombstones in L")
		}
		live := d.Nodes()
		repaired := 0
		for try := 0; try < 400; try++ {
			u, v := live[rng.Intn(len(live))], live[rng.Intn(len(live))]
			if topo.pos[u] >= topo.pos[v] || hasEdge(d, u, v) {
				continue // no window, or nothing to insert
			}
			d.AddEdge(u, v)
			if testkit.CheckAcyclic(d) != nil {
				d.RemoveEdge(u, v)
				continue
			}
			ref := cloneTopo(topo)
			fixEdgeReference(ref, d, u, v)
			topo.FixEdge(d, u, v)
			if got, want := rawOrder(topo), rawOrder(ref); got != want {
				t.Fatalf("seed %d, edge (%d→%d): in-place\n%s\nthree slices\n%s", seed, u, v, got, want)
			}
			if err := topo.Validate(d); err != nil {
				t.Fatalf("seed %d, edge (%d→%d): %v", seed, u, v, err)
			}
			repaired++
		}
		if repaired < 20 {
			t.Fatalf("seed %d: only %d windows repaired", seed, repaired)
		}
	}
}

func hasEdge(d *dag.DAG, u, v dag.NodeID) bool {
	for _, c := range d.Children(u) {
		if c == v {
			return true
		}
	}
	return false
}

// appendWindow builds a chain of n nodes under the root, L computed, and
// returns a function that appends one fresh leaf to L and hangs it under the
// node at the given depth of the chain: the common case of Fig.7, where the
// window FixEdge repairs runs from that node to the end of L.
func appendWindow(tb testing.TB, n int) (hang func(depth int) (window int)) {
	d := dag.New("db")
	chain := []dag.NodeID{d.Root()}
	for i := 0; i < n; i++ {
		id, _ := d.AddNode("C", relational.Tuple{relational.Int(int64(i))})
		d.AddEdge(chain[len(chain)-1], id)
		chain = append(chain, id)
	}
	topo := ComputeTopo(d)
	next := n
	return func(depth int) int {
		id, _ := d.AddNode("C", relational.Tuple{relational.Int(int64(next))})
		next++
		u := chain[depth]
		d.AddEdge(u, id)
		topo.Append(id)
		window := int(topo.pos[id] - topo.pos[u])
		topo.FixEdge(d, u, id)
		if topo.pos[id] >= topo.pos[u] {
			tb.Fatalf("edge (%d→%d) not repaired", u, id)
		}
		return window
	}
}

// TestFixEdgeAllocationIndependentOfWindow: the bytes one FixEdge allocates
// follow the nodes that move, not the length of the window they move across.
func TestFixEdgeAllocationIndependentOfWindow(t *testing.T) {
	const n = 16384
	hang := appendWindow(t, n)
	var ms runtime.MemStats
	measure := func(depth int) (window int, bytes uint64) {
		hang(depth) // the slices the DAG and L grow by doubling: not FixEdge's
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		const rounds = 8
		for i := 0; i < rounds; i++ {
			window = hang(depth)
		}
		runtime.ReadMemStats(&ms)
		return window, (ms.TotalAlloc - before) / rounds
	}
	// L runs leaf first: the deep end of the chain is at the far end of L
	// from the appended leaf, the root's child right next to it.
	shortWin, short := measure(16)
	longWin, long := measure(n - 16)
	if longWin < 100*shortWin {
		t.Fatalf("windows of %d and %d entries: not the spread this test is about", shortWin, longWin)
	}
	if long > short+short/2+1024 {
		t.Fatalf("FixEdge allocated %d B per edge across a window of %d, %d B across a window of %d",
			long, longWin, short, shortWin)
	}
}

// BenchmarkFixEdgeAppendWindow: a fresh node appended to L and hung under a
// node near the other end of it — B/op is what one inserted edge costs
// ∆(M,L)insert's L half when the window is most of L (16 384 entries here).
func BenchmarkFixEdgeAppendWindow(b *testing.B) {
	hang := appendWindow(b, 16384)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hang(16384 - 16)
	}
}
