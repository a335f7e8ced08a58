package reach

import "rxview/internal/dag"

// The paper maintains L and M "at once" (§3.4, Figs.7–8). Here ∆(M,L) is
// split along its comma: the L half and the garbage collection of
// ∆(M,L)delete are methods of Topo — what a serving view carries — and the M
// half is Matrix.ApplyDelta, driven by the DAG delta of a commit after the
// fact, for whoever holds a Matrix (the paper's experiments and tests).

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

// ApplyDelta is the matrix's one maintenance entry point — the M half of
// ∆(M,L)insert and ∆(M,L)delete, driven by the chronological DAG delta of a
// commit (dag.DeltaSince, the ΔV a WAL record carries). d and topo are the
// DAG and L *after* the commit: the closure contribution of an inserted edge
// is computed from M alone, and the repair after removals reads the surviving
// parents of each affected node from d. On return M is the transitive closure
// of d, provided it was the closure of the pre-commit DAG.
//
// Repairing against the final DAG is exact: RetainAncestors only intersects,
// so every row stays a superset of the truth until the pass of the last
// removal above it, and a pass visits a node after its parents. An update
// that only removes — every deletion the experiments commit — is one run and
// one pass, as in Fig.8; TestMatrixMatchesSparseOracle pins the general case,
// groups that interleave insertions and removals included.
func (m *Matrix) ApplyDelta(d *dag.DAG, topo *Topo, ops []dag.DeltaOp) {
	removal := func(k dag.DeltaKind) bool { return k == dag.DeltaEdgeDel || k == dag.DeltaNodeDel }
	for i := 0; i < len(ops); i++ {
		switch {
		case ops[i].Kind == dag.DeltaEdgeAdd:
			m.InsertEdgeClosure(ops[i].Edge.Parent, ops[i].Edge.Child)
		case removal(ops[i].Kind):
			j := i + 1
			for j < len(ops) && removal(ops[j].Kind) {
				j++
			}
			m.removeRun(d, topo, ops[i:j])
			i = j - 1
		}
	}
}

// removeRun repairs M after a run of consecutive removals — ∆(M,L)delete's
// row algebra (Fig.8) stripped of garbage collection, which already happened:
// the delta carries cascade edge removals and node deaths as ops of their
// own. L_R is the descendants-or-self of every removed edge's child, walked
// ancestors first; A_d = ⋃_{a ∈ P_d} ({a} ∪ anc(a)) over the surviving
// parents P_d is one row union per parent, and removing anc(d) \ A_d one
// masked subtract with mirrored descendant clearing.
func (m *Matrix) removeRun(d *dag.DAG, topo *Topo, run []dag.DeltaOp) {
	// Only descendants-or-self of a removed edge's child can lose ancestors;
	// the stale matrix rows are supersets of the true sets, which is all the
	// traversal needs.
	lrRow := NewRow(d.Cap())
	for _, op := range run {
		if op.Kind == dag.DeltaEdgeDel {
			lrRow.Set(op.Edge.Child)
			lrRow.Or(m.DescendantRow(op.Edge.Child))
		}
	}
	lr := lrRow.Slice()
	topo.SortDescending(lr) // ancestors first: parents are final when read

	ad := NewRow(d.Cap())
	root := d.Root()
	for _, n := range lr {
		if n == root || !d.Alive(n) {
			continue // a collected node's rows go with its NodeDel below
		}
		ad.Reset()
		for _, p := range d.Parents(n) {
			ad.Set(p)
			ad.Or(m.AncestorRow(p))
		}
		m.RetainAncestors(n, ad)
	}
	for _, op := range run {
		if op.Kind == dag.DeltaNodeDel {
			m.DropNode(op.Node)
		}
	}
}
