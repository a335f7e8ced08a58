// Package reach implements the topological order L of §3.1 of the paper and
// the L half of the incremental maintenance algorithms ∆(M,L)insert and
// ∆(M,L)delete of §3.4 (Figs.7–8): Topo.InsertUpdate and Topo.DeleteUpdate.
// L is what evaluation iterates, so a serving view (internal/core) carries a
// Topo and maintains it on the commit path. The other structure of §3.1, the
// reachability matrix M, is read by no evaluator that serves; it lives in
// internal/paper, with Algorithm Reach (Fig.4) and its half of ∆(M,L).
//
// Where Fig.7 appends an inserted subtree to L and repairs each inserted
// edge with swap(L, u, v) — a shift over most of L per parent when the
// subtree hangs under old nodes — Step places the subtree, children first,
// into the tombstones deletions left below its parents, found through an
// index of them, and keeps swap(L, u, v) (FixEdge) for edges between old
// nodes and as the fallback when too few holes fit. The live path and a
// replayed commit record both step L over the same journaled ops.
//
// Order convention (§3.1): "u precedes v in L only if u is not an ancestor of
// v". Descendants therefore come first; for every edge (parent u → child v),
// pos(v) < pos(u). Algorithm Reach walks L backwards (ancestors first), and
// the bottom-up XPath pass walks it forwards (children first).
package reach

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"rxview/internal/cow"
	"rxview/internal/dag"
)

// Order is the read surface a query evaluator needs from the topological
// order: the live Topo and a sealed TopoVersion both provide it.
type Order interface {
	// Nodes returns the live entries in order (descendants first).
	Nodes() []dag.NodeID
	// Len returns the number of live entries.
	Len() int
}

var (
	_ Order = (*Topo)(nil)
	_ Order = (*TopoVersion)(nil)
)

// Topo is the topological order L over the live nodes of a DAG. Deletions
// leave tombstones; new subtrees are placed into them (Step), and they are
// compacted once they outnumber live entries. Positions change under both,
// so callers must compare positions, not store them across mutations.
//
// The entry list is a cow.Array: Seal freezes the current order into an
// immutable TopoVersion that shares every chunk the writer has not touched
// since the previous seal — the unchanged prefix (and any unchanged interior
// run) of L is shared between versions instead of copied. The pos index and
// FixEdge's visited stamps are writer-private and never sealed; sealed
// readers only iterate.
type Topo struct {
	list  cow.Array[dag.NodeID] // entries, tombstones included
	pos   []int32               // node id -> index into the list; -1 when absent
	holes int
	free  freeSlots // the positions of the holes
	seen  []uint32  // node id -> the walk that last visited it (newWalk)
	walk  uint32    // the current walk; 0 is never one

	// The nodes born since the last Settle, in birth order, with the edges
	// the delta's ops gave them so far (youngOf). One not yet in L is
	// pending: it waits for an edge from a node that is (Step).
	young  map[dag.NodeID]int32 // node id -> index into youngs
	youngs []youngNode
}

// at returns entry i of the list.
func (t *Topo) at(i int) dag.NodeID { return t.list.At(i) }

// push appends id to the list and records its position.
func (t *Topo) push(id dag.NodeID) {
	t.pos[id] = int32(t.list.Len())
	t.list.Push(id)
}

// ComputeTopo builds L for the DAG with Kahn's algorithm over reversed edges
// (leaves first), which directly yields the children-first order.
func ComputeTopo(d *dag.DAG) *Topo {
	t := &Topo{pos: make([]int32, d.Cap())}
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
	if t.list.Len() != d.NumNodes() {
		// Impossible for acyclic input; surface loudly rather than return a
		// partial order.
		panic(fmt.Sprintf("reach: topological sort covered %d of %d nodes (cycle?)",
			t.list.Len(), d.NumNodes()))
	}
	return t
}

// RestoreTopo rebuilds a Topo from a serialized order (live entries,
// descendants first, as returned by Nodes) — the checkpoint-reload path.
// The restored order is tombstone-free; it validates against the DAG the
// order was serialized from.
func RestoreTopo(order []dag.NodeID) *Topo {
	t := &Topo{}
	maxID := dag.InvalidNode
	for _, id := range order {
		if id > maxID {
			maxID = id
		}
	}
	t.pos = make([]int32, int(maxID)+1)
	for i := range t.pos {
		t.pos[i] = -1
	}
	for _, id := range order {
		t.push(id)
	}
	return t
}

// Len returns the number of live entries.
func (t *Topo) Len() int { return t.list.Len() - t.holes }

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
	for i := 0; i < t.list.Len(); i++ {
		if id := t.at(i); id != dag.InvalidNode {
			out = append(out, id)
		}
	}
	return out
}

func (t *Topo) ensure(id dag.NodeID) {
	for int(id) >= len(t.pos) {
		t.pos = append(t.pos, -1)
	}
}

// Append places a (new) node at the end of L — the ancestor-most position,
// which is always safe for a node with no parents yet. Edge insertions then
// repair any violated constraints via FixEdge. Step's fallback for a new
// subtree that finds too few holes below its parent.
func (t *Topo) Append(id dag.NodeID) {
	t.ensure(id)
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
	t.list.Set(int(t.pos[id]), dag.InvalidNode)
	t.free.add(int(t.pos[id]))
	t.pos[id] = -1
	t.holes++
	if t.holes > 64 && t.holes*2 > t.list.Len() {
		t.compact()
	}
}

func (t *Topo) compact() {
	w := 0
	for i := 0; i < t.list.Len(); i++ {
		if id := t.at(i); id != dag.InvalidNode {
			if w != i {
				t.pos[id] = int32(w)
				t.list.Set(w, id)
			}
			w++
		}
	}
	t.list.Truncate(w)
	t.holes = 0
	t.free.reset()
}

// FixEdge restores the order after inserting edge (u,v) into d: if v already
// precedes u nothing changes; otherwise the nodes of L[u:v] that are
// descendants-or-self of v are moved immediately in front of u — the
// procedure swap(L, u, v) of §3.4. The move preserves the relative order of
// both groups, which keeps every previously valid constraint valid.
//
// The window is permuted in place. A node appended to L and then hung under
// an old one has most of L between the two: what is allocated here must
// follow the descendants that move (few), never the window.
//
// Inside a delta (Step … Settle) the walk reads a young node's children from
// the ops seen so far and does not descend into nodes not in L, so that it
// sees the graph as of the op, not as of the end of the delta.
func (t *Topo) FixEdge(d *dag.DAG, u, v dag.NodeID) {
	lo, hi := t.pos[u], t.pos[v]
	if hi < lo {
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
		for _, c := range t.children(d, x) {
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
		t.place(w, t.at(int(i)))
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

// children returns x's children as the delta being stepped has made them:
// the ops' own record for a young node, the DAG's for any other.
func (t *Topo) children(d *dag.DAG, x dag.NodeID) []dag.NodeID {
	if y := t.youngOf(x); y != nil {
		return y.kids
	}
	return d.Children(x)
}

// place puts id (or a tombstone) at entry i. An entry that already holds the
// value is left alone, so a run of tombstones sliding over itself copies no
// chunk a sealed version shares.
func (t *Topo) place(i int32, id dag.NodeID) {
	if t.at(int(i)) != id {
		t.list.Set(int(i), id)
	}
	if id == dag.InvalidNode {
		t.free.add(int(i))
	} else {
		t.free.remove(int(i))
		t.pos[id] = i
	}
}

// Seal freezes the current order into an immutable TopoVersion in
// O(n/4096), sharing every chunk the writer did not touch since the
// previous seal.
func (t *Topo) Seal() *TopoVersion {
	return &TopoVersion{list: t.list.Seal(), holes: t.holes}
}

// Clone returns an independent, mutable copy of the topological order,
// taken between deltas. Snapshot publication uses Seal instead.
func (t *Topo) Clone() *Topo {
	return &Topo{list: t.list.Clone(), pos: slices.Clone(t.pos), holes: t.holes, free: t.free.clone()}
}

// TopoVersion is an immutable snapshot of a topological order, sealed by
// Topo.Seal. Safe for concurrent use by any number of goroutines.
type TopoVersion struct {
	list  cow.Sealed[dag.NodeID]
	holes int
}

// Len returns the number of live entries at the sealed epoch.
func (tv *TopoVersion) Len() int { return tv.list.Len() - tv.holes }

// Nodes returns the live entries in order (descendants first).
func (tv *TopoVersion) Nodes() []dag.NodeID {
	out := make([]dag.NodeID, 0, tv.Len())
	for i := 0; i < tv.list.Len(); i++ {
		if id := tv.list.At(i); id != dag.InvalidNode {
			out = append(out, id)
		}
	}
	return out
}

// Validate checks the order invariant against the DAG: every live node is
// present exactly once and every edge satisfies pos(child) < pos(parent).
// It also holds the hole index to the tombstones.
func (t *Topo) Validate(d *dag.DAG) error {
	count := 0
	for i := 0; i < t.list.Len(); i++ {
		id := t.at(i)
		if (id == dag.InvalidNode) != t.free.has(i) {
			return fmt.Errorf("reach: entry %d holds %d, but the hole index says free=%v", i, id, t.free.has(i))
		}
		if id == dag.InvalidNode {
			continue
		}
		count++
		if t.pos[id] != int32(i) {
			return fmt.Errorf("reach: pos[%d]=%d but found at %d", id, t.pos[id], i)
		}
		if !d.Alive(id) {
			return fmt.Errorf("reach: dead node %d in L", id)
		}
	}
	if count != d.NumNodes() {
		return fmt.Errorf("reach: L has %d entries, DAG has %d nodes", count, d.NumNodes())
	}
	for _, u := range d.Nodes() {
		for _, v := range d.Children(u) {
			if t.pos[v] >= t.pos[u] {
				return fmt.Errorf("reach: edge (%d→%d) violates order: pos %d ≥ %d",
					u, v, t.pos[v], t.pos[u])
			}
		}
	}
	return nil
}
