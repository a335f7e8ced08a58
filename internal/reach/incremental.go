package reach

import "rxview/internal/dag"

// The paper maintains L and M "at once" (§3.4, Figs.7–8). Here ∆(M,L) is
// split along its comma: the L half and the garbage collection of
// ∆(M,L)delete are methods of Topo, what a serving view carries; the M half
// is internal/paper's Matrix.ApplyDelta, driven by a commit's DAG delta
// after the fact.

// InsertUpdate is the L half of Algorithm ∆(M,L)insert (Fig.7): after an
// insertion that added newNodes (the fresh nodes of the published subtree
// ST(A,t), in creation order) and newEdges (the subtree's internal edges plus
// the connection edges (u_i, r_A) for u_i ∈ r[[p]]), the new nodes are
// appended to L in children-first order (their local topological order L_A)
// and every inserted edge is repaired with swap(L, u, v) — the alignment of
// Fig.7 lines 6..14. Edges must already be present in the DAG.
func (t *Topo) InsertUpdate(d *dag.DAG, newNodes []dag.NodeID, newEdges []dag.Edge) {
	for _, id := range localTopo(d, newNodes) {
		t.Append(id)
	}
	for _, e := range newEdges {
		t.FixEdge(d, e.Parent, e.Child)
	}
}

// DeleteUpdate is the keep(d) := false half of Algorithm ∆(M,L)delete
// (Fig.8): given the already-removed parent-child edges ep = Ep(r), it
// removes every node they left unreachable from L and from the DAG and
// returns ∆'V — the cascade of edges removed from the view because their
// parent node died — plus the garbage-collected nodes themselves.
//
// RemoveEdge keeps the Parents lists clean, so a non-root node is unreachable
// exactly when its parent list is empty; examining the children of every
// removed edge breadth-first therefore collects the same set Fig.8's backward
// walk over desc(r[[p]]) does, without reading M. The order may differ from
// Fig.8's; a replayed commit follows the journal of the mutators called here,
// so it reproduces whatever order ran.
func (t *Topo) DeleteUpdate(d *dag.DAG, ep []dag.Edge) (cascade []dag.Edge, removed []dag.NodeID) {
	root := d.Root()
	queue := make([]dag.NodeID, len(ep))
	for i, e := range ep {
		queue[i] = e.Child
	}
	for i := 0; i < len(queue); i++ {
		n := queue[i]
		if n == root || !d.Alive(n) || len(d.Parents(n)) > 0 {
			continue
		}
		t.Delete(n)
		for _, c := range append([]dag.NodeID(nil), d.Children(n)...) {
			d.RemoveEdge(n, c)
			cascade = append(cascade, dag.Edge{Parent: n, Child: c})
			queue = append(queue, c)
		}
		d.RemoveNode(n)
		removed = append(removed, n)
	}
	return cascade, removed
}

// localTopo orders the given nodes children-first using only edges among
// them (the order L_A of Fig.7 line 2). The post-order DFS is iterative: the
// inserted subtree can be pathologically deep (a published chain), and a
// recursive walk would grow the goroutine stack with it.
func localTopo(d *dag.DAG, nodes []dag.NodeID) []dag.NodeID {
	in := make(map[dag.NodeID]bool, len(nodes))
	for _, id := range nodes {
		in[id] = true
	}
	const (
		visiting int8 = 1
		done     int8 = 2
	)
	state := make(map[dag.NodeID]int8, len(nodes))
	out := make([]dag.NodeID, 0, len(nodes))
	// Each frame revisits a node twice: first to push its children, then —
	// once they are all done — to emit it (post-order).
	type frame struct {
		id       dag.NodeID
		expanded bool
	}
	var stack []frame
	for _, start := range nodes {
		if state[start] != 0 {
			continue
		}
		stack = append(stack[:0], frame{id: start})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.expanded {
				if state[f.id] != done {
					state[f.id] = done
					out = append(out, f.id) // post-order: children before parents
				}
				stack = stack[:len(stack)-1]
				continue
			}
			f.expanded = true
			if state[f.id] != 0 {
				stack = stack[:len(stack)-1]
				continue
			}
			state[f.id] = visiting
			for _, c := range d.Children(f.id) {
				if in[c] && state[c] == 0 {
					stack = append(stack, frame{id: c})
				}
			}
		}
	}
	return out
}
