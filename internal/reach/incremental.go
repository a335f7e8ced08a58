package reach

import (
	"slices"

	"rxview/internal/dag"
)

// The paper maintains L and M "at once" (§3.4, Figs.7–8). Here ∆(M,L) is
// split along its comma: the L half and the garbage collection of
// ∆(M,L)delete are methods of Topo, what a serving view carries; the M half
// is internal/paper's Matrix.ApplyDelta, driven by a commit's DAG delta
// after the fact.

// InsertUpdate is the L half of Algorithm ∆(M,L)insert (Fig.7) for one
// insertion: delta is the DAG mutations it made, in journal order — the
// births of the published subtree ST(A,t)'s fresh nodes, its internal edges
// and the connection edges (u_i, r_A) for u_i ∈ r[[p]] — all already applied
// to d. It steps L over them and settles (Step, Settle), the same function a
// replayed commit record runs op by op, so a follower's L is the primary's
// entry for entry.
func (t *Topo) InsertUpdate(d *dag.DAG, delta []dag.DeltaOp) {
	for _, op := range delta {
		t.Step(d, op)
	}
	t.Settle()
}

// Step is L's half of one journaled DAG mutation, once d reflects it:
//
//   - a born node is pending, not yet in L;
//   - an edge from a pending node is only recorded;
//   - an edge from a node in L to a pending one places the pending subtree
//     below it: its nodes, children first, take the lowest holes of L above
//     their highest child in L and below the parent (the order L_A of Fig.7
//     line 2, without a shift). When the parent was itself born in this
//     delta and has too few holes below it, the delta's whole subtree around
//     it is placed again, into its own slots and the holes, below its
//     lowest parent from outside. When neither fits, the pending subtree is
//     appended and the edge repaired with swap(L, u, v) (FixEdge), as
//     Fig.7 does;
//   - an edge between two nodes in L is repaired with FixEdge;
//   - a dead node is tombstoned (§3.4: the rest of L keeps its order).
//
// Removing an edge never invalidates a topological order. A delta is a run
// of Steps ended by Settle. Its ops are the journal's, whether the delta is
// one stage of the live path or a whole replayed record: a commit record
// carries no stage boundaries, and none is needed, since every node an
// insertion publishes hangs under a node in L before the insertion ends.
// So that both paths choose alike, a choice reads L, the ops stepped so far
// and d's edges among nodes in L only: the live path's d already holds the
// insertion's later edges, but those among nodes in L are connection edges
// into its new root, which no walk down from a node below that root meets.
func (t *Topo) Step(d *dag.DAG, op dag.DeltaOp) {
	switch op.Kind {
	case dag.DeltaNodeAdd:
		t.ensure(op.Node)
		if t.young == nil {
			t.young = make(map[dag.NodeID]int32)
		}
		t.young[op.Node] = int32(len(t.youngs))
		if n := len(t.youngs); n < cap(t.youngs) {
			t.youngs = t.youngs[:n+1]
			y := &t.youngs[n]
			y.id, y.kids, y.parents = op.Node, y.kids[:0], y.parents[:0]
		} else {
			t.youngs = append(t.youngs, youngNode{id: op.Node})
		}
	case dag.DeltaNodeDel:
		delete(t.young, op.Node)
		t.Delete(op.Node)
	case dag.DeltaEdgeAdd:
		u, v := op.Edge.Parent, op.Edge.Child
		if y := t.youngOf(u); y != nil {
			y.kids = append(y.kids, v)
		}
		if y := t.youngOf(v); y != nil {
			y.parents = append(y.parents, u)
		}
		switch {
		case !t.Contains(u):
			// u is pending: v is placed with it, or below it once it is.
		case !t.Contains(v):
			t.placeSubtree(d, u, v)
		default:
			t.FixEdge(d, u, v)
		}
	case dag.DeltaEdgeDel:
		u, v := op.Edge.Parent, op.Edge.Child
		if y := t.youngOf(u); y != nil {
			y.kids = without(y.kids, v)
		}
		if y := t.youngOf(v); y != nil {
			y.parents = without(y.parents, u)
		}
	}
}

// youngNode is what a delta's ops gave a node born in it.
type youngNode struct {
	id            dag.NodeID
	kids, parents []dag.NodeID
}

// youngOf returns what the delta gave x, or nil when x was not born in it.
// The pointer is good until the next birth.
func (t *Topo) youngOf(x dag.NodeID) *youngNode {
	if i, ok := t.young[x]; ok {
		return &t.youngs[i]
	}
	return nil
}

func without(ids []dag.NodeID, id dag.NodeID) []dag.NodeID {
	if i := slices.Index(ids, id); i >= 0 {
		return slices.Delete(ids, i, i+1)
	}
	return ids
}

// Settle ends a delta: a node still pending — one no op hung under a node
// in L, which no insertion leaves — is appended with its subtree, and the
// delta's record of young nodes is dropped.
func (t *Topo) Settle() {
	for i := range t.youngs {
		if id := t.youngs[i].id; t.pending(id) {
			for _, x := range t.localTopo([]dag.NodeID{id}, t.pending) {
				t.Append(x)
			}
		}
	}
	clear(t.young)
	t.youngs = t.youngs[:0]
}

// pending reports whether id was born in this delta and is not in L yet.
func (t *Topo) pending(id dag.NodeID) bool {
	_, young := t.young[id]
	return young && !t.Contains(id)
}

// placeSubtree places the pending node v and the pending nodes below it,
// now that edge (u, v) hangs them under u, which is in L. When u was born in
// this delta too (content induced under a new node), there is seldom a hole
// between u and the children placed below it: the delta's whole subtree
// around u is placed again instead — the young nodes in L above u, and every
// young node below those.
func (t *Topo) placeSubtree(d *dag.DAG, u, v dag.NodeID) {
	order := t.localTopo([]dag.NodeID{v}, t.pending)
	if t.youngOf(u) != nil {
		up := []dag.NodeID{u}
		t.newWalk()
		t.seen[u] = t.walk
		for i := 0; i < len(up); i++ {
			for _, p := range t.youngOf(up[i]).parents {
				if t.youngOf(p) != nil && t.Contains(p) && t.seen[p] != t.walk {
					t.seen[p] = t.walk
					up = append(up, p)
				}
			}
		}
		family := t.localTopo(up, func(id dag.NodeID) bool { return t.youngOf(id) != nil })
		if t.fill(family) {
			return
		}
	} else if t.fill(order) {
		return
	}
	for _, x := range order {
		t.Append(x)
	}
	t.FixEdge(d, u, v)
}

// fill places the young nodes of order — children first, each pending or
// in L — into the lowest free slots above their highest child outside order
// and below their lowest parent outside it; the slots order's own nodes hold
// count as free. It reports false, and changes nothing, when too few such
// slots exist.
func (t *Topo) fill(order []dag.NodeID) bool {
	t.newWalk()
	var own []int // the slots order's nodes hold now, ascending
	for _, x := range order {
		t.seen[x] = t.walk
		if p := t.Pos(x); p >= 0 {
			own = append(own, int(p))
		}
	}
	slices.Sort(own)
	floor, ceiling := -1, t.list.Len()
	for _, x := range order {
		y := t.youngOf(x)
		for _, c := range y.kids {
			if t.seen[c] != t.walk {
				floor = max(floor, int(t.Pos(c)))
			}
		}
		for _, p := range y.parents {
			if t.seen[p] != t.walk && t.Contains(p) {
				ceiling = min(ceiling, int(t.pos[p]))
			}
		}
	}
	at := make([]int, 0, len(order))
	h, o := t.free.next(floor+1), 0
	for o < len(own) && own[o] <= floor {
		o++
	}
	for len(at) < len(order) {
		next := h
		if o < len(own) && (h < 0 || own[o] < h) {
			next, o = own[o], o+1
		} else if h >= 0 {
			h = t.free.next(h + 1)
		}
		if next < 0 || next >= ceiling {
			return false
		}
		at = append(at, next)
	}
	for _, p := range own {
		t.pos[t.at(p)] = -1
		t.place(int32(p), dag.InvalidNode)
	}
	t.holes += len(own)
	for i, x := range order {
		t.place(int32(at[i]), x)
	}
	t.holes -= len(order)
	return true
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

// localTopo orders the young nodes below starts (starts included) for which
// in holds children-first, over the edges the delta gave them (the order
// L_A of Fig.7 line 2). The post-order DFS is iterative: the inserted
// subtree can be pathologically deep (a published chain), and a recursive
// walk would grow the goroutine stack with it.
func (t *Topo) localTopo(starts []dag.NodeID, in func(dag.NodeID) bool) []dag.NodeID {
	// A node is marked when it is expanded; its frame then stays on the
	// stack until its children are done, and is emitted when popped. A
	// child already marked is done: marked and not done would be a cycle.
	t.newWalk()
	var out []dag.NodeID
	type frame struct {
		id       dag.NodeID
		expanded bool
	}
	var stack []frame
	for _, start := range starts {
		stack = append(stack[:0], frame{id: start})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			switch {
			case f.expanded:
				out = append(out, f.id) // post-order: children before parents
				stack = stack[:len(stack)-1]
			case t.seen[f.id] == t.walk:
				stack = stack[:len(stack)-1] // reached again through another parent
			default:
				f.expanded = true
				t.seen[f.id] = t.walk
				for _, c := range t.youngOf(f.id).kids {
					if t.seen[c] != t.walk && in(c) {
						stack = append(stack, frame{id: c})
					}
				}
			}
		}
	}
	return out
}
