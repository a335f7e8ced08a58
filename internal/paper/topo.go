package paper

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"rxview/internal/dag"
)

// Topo is the topological order L of §3.1 over the live nodes of a DAG, and
// its half of ∆(M,L)insert and ∆(M,L)delete (§3.4, Figs.7–8): ApplyDelta
// steps it over a commit's DAG delta the way the figures do, appending each
// inserted node and repairing each inserted edge with swap(L, u, v)
// (FixEdge). Algorithm Reach (Compute) and the M half of the maintenance
// (Matrix.ApplyDelta) read it; no evaluator that serves does, since the
// sweep orders the nodes it visits itself.
//
// Order convention (§3.1): "u precedes v in L only if u is not an ancestor of
// v". Descendants therefore come first; for every edge (parent u → child v),
// pos(v) < pos(u). Algorithm Reach walks L backwards (ancestors first).
//
// Deletions leave tombstones, compacted once they outnumber live entries.
// Positions change under FixEdge and compaction, so callers must compare
// positions, not store them across mutations.
type Topo struct {
	list  []dag.NodeID // entries, tombstones (InvalidNode) included
	pos   []int32      // node id -> index into list; -1 when absent
	holes int
	seen  []uint32 // node id -> the walk that last visited it (newWalk)
	walk  uint32   // the current walk; 0 is never one
}

// push appends id to the list and records its position.
func (t *Topo) push(id dag.NodeID) {
	t.pos[id] = int32(len(t.list))
	t.list = append(t.list, id)
}

// ComputeTopo builds L for the DAG with Kahn's algorithm over reversed edges
// (leaves first), which directly yields the children-first order.
func ComputeTopo(d *dag.DAG) *Topo {
	t := &Topo{pos: make([]int32, d.Cap()), list: make([]dag.NodeID, 0, d.NumNodes())}
	for i := range t.pos {
		t.pos[i] = -1
	}
	outdeg := make([]int32, d.Cap())
	var queue []dag.NodeID
	for _, id := range d.Nodes() {
		n := int32(len(d.Children(id)))
		outdeg[id] = n
		if n == 0 {
			queue = append(queue, id)
		}
	}
	sort.Slice(queue, func(i, j int) bool { return queue[i] < queue[j] })
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		t.push(id)
		for _, p := range d.Parents(id) {
			outdeg[p]--
			if outdeg[p] == 0 {
				queue = append(queue, p)
			}
		}
	}
	if len(t.list) != d.NumNodes() {
		// Impossible for acyclic input; surface loudly rather than return a
		// partial order.
		panic(fmt.Sprintf("paper: topological sort covered %d of %d nodes (cycle?)",
			len(t.list), d.NumNodes()))
	}
	return t
}

// Len returns the number of live entries.
func (t *Topo) Len() int { return len(t.list) - t.holes }

// Pos returns the position of a node, or -1 if absent. Positions order nodes
// (smaller = closer to the leaves); absolute values are meaningless.
func (t *Topo) Pos(id dag.NodeID) int32 {
	if int(id) >= len(t.pos) || id < 0 {
		return -1
	}
	return t.pos[id]
}

// Contains reports whether the node is in L.
func (t *Topo) Contains(id dag.NodeID) bool { return t.Pos(id) >= 0 }

// Nodes returns the live entries in order (descendants first).
func (t *Topo) Nodes() []dag.NodeID {
	out := make([]dag.NodeID, 0, t.Len())
	for _, id := range t.list {
		if id != dag.InvalidNode {
			out = append(out, id)
		}
	}
	return out
}

// ApplyDelta is L's half of ∆(M,L)insert and ∆(M,L)delete, driven by the
// chronological DAG delta of a commit (dag.DeltaSince, the ΔV a WAL record
// carries) as Figs.7–8 maintain L: a born node is appended, an inserted edge
// is repaired with swap(L, u, v), and a collected node is tombstoned (§3.4:
// "an element removal does not affect the topological order of the rest of
// its elements"). Removing an edge never invalidates a topological order.
//
// d is the DAG *after* the commit. FixEdge walks d's edges among the nodes
// L holds when the op is stepped, so each move keeps every constraint of d
// already met, and on return L is a valid order of d, provided it was one of
// the pre-commit DAG.
func (t *Topo) ApplyDelta(d *dag.DAG, ops []dag.DeltaOp) {
	for _, op := range ops {
		switch op.Kind {
		case dag.DeltaNodeAdd:
			t.Append(op.Node)
		case dag.DeltaNodeDel:
			t.Delete(op.Node)
		case dag.DeltaEdgeAdd:
			t.FixEdge(d, op.Edge.Parent, op.Edge.Child)
		}
	}
}

// Append places a (new) node at the end of L — the ancestor-most position,
// which is always safe for a node with no parents yet. Edge insertions then
// repair any violated constraints via FixEdge.
func (t *Topo) Append(id dag.NodeID) {
	for int(id) >= len(t.pos) {
		t.pos = append(t.pos, -1)
	}
	if t.pos[id] >= 0 {
		return
	}
	t.push(id)
}

// Delete tombstones a node. Per §3.4, "an element removal does not affect the
// topological order of the rest of its elements".
func (t *Topo) Delete(id dag.NodeID) {
	if !t.Contains(id) {
		return
	}
	t.list[t.pos[id]] = dag.InvalidNode
	t.pos[id] = -1
	t.holes++
	if t.holes > 64 && t.holes*2 > len(t.list) {
		t.compact()
	}
}

func (t *Topo) compact() {
	w := 0
	for _, id := range t.list {
		if id != dag.InvalidNode {
			t.pos[id] = int32(w)
			t.list[w] = id
			w++
		}
	}
	t.list = t.list[:w]
	t.holes = 0
}

// FixEdge restores the order after inserting edge (u,v) into d: if v already
// precedes u nothing changes; otherwise the nodes of L[u:v] that are
// descendants-or-self of v are moved immediately in front of u — the
// procedure swap(L, u, v) of §3.4. The move preserves the relative order of
// both groups, which keeps every previously valid constraint valid.
//
// The window is permuted in place. A node appended to L and then hung under
// an old one has most of L between the two: what is allocated here must
// follow the descendants that move (few), never the window. The walk does
// not descend into nodes not in L.
func (t *Topo) FixEdge(d *dag.DAG, u, v dag.NodeID) {
	lo, hi := t.Pos(u), t.Pos(v)
	if lo < 0 || hi < lo {
		return
	}
	// Collect the descendants-or-self of v that sit inside the window.
	t.newWalk()
	var descs []dag.NodeID
	stack := []dag.NodeID{v}
	t.seen[v] = t.walk
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if p := t.pos[x]; p >= lo && p <= hi {
			descs = append(descs, x)
		}
		for _, c := range d.Children(x) {
			if t.Pos(c) >= 0 && t.seen[c] != t.walk {
				t.seen[c] = t.walk
				stack = append(stack, c)
			}
		}
	}
	slices.SortFunc(descs, func(a, b dag.NodeID) int { return cmp.Compare(t.pos[a], t.pos[b]) })
	// The rest (starting with u; tombstones ride along) slides to the back
	// of the window, last entry first, over the places the descendants
	// leave; the descendants then take the front, in their relative order.
	w, next := hi, len(descs)-1
	for i := hi; i >= lo; i-- {
		if next >= 0 && t.pos[descs[next]] == i {
			next--
			continue
		}
		t.place(w, t.list[i])
		w--
	}
	for i, id := range descs {
		t.place(lo+int32(i), id)
	}
}

// newWalk opens a visited set over node ids: until the next one, seen[x] ==
// walk marks x visited. Opening one is one increment, and the stamps grow
// with pos, not per call.
func (t *Topo) newWalk() {
	if len(t.seen) < len(t.pos) {
		t.seen, t.walk = make([]uint32, cap(t.pos)), 0
	}
	if t.walk++; t.walk == 0 {
		clear(t.seen)
		t.walk = 1
	}
}

// place puts id (or a tombstone) at entry i.
func (t *Topo) place(i int32, id dag.NodeID) {
	t.list[i] = id
	if id != dag.InvalidNode {
		t.pos[id] = i
	}
}

// Validate checks the order invariant against the DAG: every live node is
// present exactly once and every edge satisfies pos(child) < pos(parent).
func (t *Topo) Validate(d *dag.DAG) error {
	count := 0
	for i, id := range t.list {
		if id == dag.InvalidNode {
			continue
		}
		count++
		if t.pos[id] != int32(i) {
			return fmt.Errorf("paper: pos[%d]=%d but found at %d", id, t.pos[id], i)
		}
		if !d.Alive(id) {
			return fmt.Errorf("paper: dead node %d in L", id)
		}
	}
	if count != d.NumNodes() {
		return fmt.Errorf("paper: L has %d entries, DAG has %d nodes", count, d.NumNodes())
	}
	for _, u := range d.Nodes() {
		for _, v := range d.Children(u) {
			if t.pos[v] >= t.pos[u] {
				return fmt.Errorf("paper: edge (%d→%d) violates order: pos %d ≥ %d",
					u, v, t.pos[v], t.pos[u])
			}
		}
	}
	return nil
}
