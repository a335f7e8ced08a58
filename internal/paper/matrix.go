// Package paper holds what the paper maintains and reads but no serving path
// does: the topological order L and the reachability matrix M of §3.1 (the
// bitset Matrix, and the sparse relation layout the paper describes as its
// oracle), Algorithm Reach (Fig.4), ∆(M,L)insert and ∆(M,L)delete (§3.4,
// Figs.7–8) driven by a commit's DAG delta — L's half by Topo.ApplyDelta,
// with swap(L, u, v) as FixEdge, M's by Matrix.ApplyDelta — and the
// paper-literal evaluator of §3.2 that expands // through M. A serving view
// carries neither structure: its sweep orders the nodes it visits itself
// (package xpath), and the garbage collection of Fig.8 is the DAG's own
// (dag.DAG.Collect). The experiments of §5 (internal/bench) time this
// package beside the serving path, and tests hold the serving path to it.
//
// It imports dag and xpath and never core, whose tests keep M as an oracle.
// The internalboundary analyzer keeps it out of every other importer but
// internal/bench.
package paper

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"rxview/internal/dag"
)

// Matrix is the reachability matrix M of §3.1, stored densely: per node, the
// ancestor set and the descendant set are bitset rows ([]uint64 words over
// the dense NodeID space). The paper stores M sparsely as a relation
// M(anc, desc); the dense layout trades the |M| ≪ n² memory advantage
// (worst case here is 2·n² bits = n²/4 bytes, rows are truncated at their
// highest set word) for word-level set algebra: the maintenance algorithms of §3.4 and
// the // expansion of §3.2 become row unions, subtracts and popcounts
// instead of per-pair map operations. NewSparse keeps the relation
// representation as the test oracle.
//
// Both directions are maintained so that anc(d) and desc(a) are O(1) row
// lookups, as the maintenance and evaluation algorithms require both.
// Self-pairs are not stored: M records proper ancestor/descendant pairs.
type Matrix struct {
	anc   []Row // node -> its ancestors
	desc  []Row // node -> its descendants
	pairs int
}

// NewMatrix returns an empty matrix sized for the DAG.
func NewMatrix(capacity int) *Matrix {
	return &Matrix{
		anc:  make([]Row, capacity),
		desc: make([]Row, capacity),
	}
}

func (m *Matrix) ensure(id dag.NodeID) {
	for int(id) >= len(m.anc) {
		m.anc = append(m.anc, nil)
		m.desc = append(m.desc, nil)
	}
}

// Size returns |M|, the number of (anc, desc) pairs.
func (m *Matrix) Size() int { return m.pairs }

// IsAncestor reports whether a is a proper ancestor of d.
func (m *Matrix) IsAncestor(a, d dag.NodeID) bool {
	return d >= 0 && int(d) < len(m.anc) && m.anc[d].Contains(a)
}

// AncestorRow returns the ancestor bitset of d. The row is live; callers
// must not mutate it. Out-of-range ids yield an empty row.
func (m *Matrix) AncestorRow(d dag.NodeID) Row {
	if d < 0 || int(d) >= len(m.anc) {
		return nil
	}
	return m.anc[d]
}

// DescendantRow returns the descendant bitset of a. The row is live; callers
// must not mutate it.
func (m *Matrix) DescendantRow(a dag.NodeID) Row {
	if a < 0 || int(a) >= len(m.desc) {
		return nil
	}
	return m.desc[a]
}

// InsertEdgeClosure adds, for a new DAG edge (u,v), the pairs
// ({u} ∪ anc(u)) × ({v} ∪ desc(v)) — the closure contribution of the edge
// per ∆(M,L)insert (Fig.7 lines 3..5). The outer product is applied as row
// unions: every descendant-or-self of v absorbs u's ancestor row, and every
// ancestor-or-self of u absorbs v's descendant row. No row aliases another
// during the sweep — that would require u ∈ desc(v) or v ∈ anc(u), a cycle —
// so the live rows can be combined without snapshots.
func (m *Matrix) InsertEdgeClosure(u, v dag.NodeID) {
	m.ensure(u)
	m.ensure(v)
	au := m.anc[u]  // stays constant: u ∉ {v} ∪ desc(v)
	dv := m.desc[v] // stays constant: v ∉ {u} ∪ anc(u)

	// Ancestor side, counting new pairs once.
	m.pairs += m.anc[v].Or(au)
	if m.anc[v].Set(u) {
		m.pairs++
	}
	for d := range dv.All() {
		m.pairs += m.anc[d].Or(au)
		if m.anc[d].Set(u) {
			m.pairs++
		}
	}
	// Descendant side mirrors without counting.
	m.desc[u].Or(dv)
	m.desc[u].Set(v)
	for a := range au.All() {
		m.desc[a].Or(dv)
		m.desc[a].Set(v)
	}
}

// RetainAncestors intersects anc(d) with keep, clearing the mirror
// descendant bits of every removed ancestor in the same pass — the
// anc(d) \ A_d removal of ∆(M,L)delete (Fig.8) as one word-level subtract.
// It returns the number of removed pairs.
func (m *Matrix) RetainAncestors(d dag.NodeID, keep Row) int {
	if d < 0 || int(d) >= len(m.anc) {
		return 0
	}
	row := m.anc[d]
	removed := 0
	for i, w := range row {
		var k uint64
		if i < len(keep) {
			k = keep[i]
		}
		rm := w &^ k
		if rm == 0 {
			continue
		}
		row[i] = w & k
		removed += bits.OnesCount64(rm)
		for rm != 0 {
			a := dag.NodeID(i<<6 + bits.TrailingZeros64(rm))
			rm &= rm - 1
			m.desc[a].Unset(d)
		}
	}
	m.pairs -= removed
	return removed
}

// DropNode removes every pair mentioning the node (used when a node is
// garbage collected).
func (m *Matrix) DropNode(id dag.NodeID) {
	if id < 0 || int(id) >= len(m.anc) {
		return
	}
	for a := range m.anc[id].All() {
		m.desc[a].Unset(id)
		m.pairs--
	}
	m.anc[id] = nil
	for d := range m.desc[id].All() {
		m.anc[d].Unset(id)
		m.pairs--
	}
	m.desc[id] = nil
}

// Equal reports whether two matrices contain exactly the same pairs, in
// both directions — the descendant rows are maintained as a mirror, so they
// are compared too rather than assumed consistent.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.pairs != o.pairs {
		return false
	}
	n := len(m.anc)
	if len(o.anc) > n {
		n = len(o.anc)
	}
	for d := 0; d < n; d++ {
		id := dag.NodeID(d)
		if !m.AncestorRow(id).EqualRow(o.AncestorRow(id)) {
			return false
		}
		if !m.DescendantRow(id).EqualRow(o.DescendantRow(id)) {
			return false
		}
	}
	return true
}

// ValidateMirror checks the internal invariant that the descendant rows are
// exactly the transpose of the ancestor rows and that the pair counter
// matches both: every anc bit must have its mirrored desc bit, and the total
// popcounts of both directions must equal Size(). The two checks together
// imply desc = ancᵀ exactly (a stray desc bit would push its popcount past
// the counter).
func (m *Matrix) ValidateMirror() error {
	ancPairs := 0
	for d := range m.anc {
		ancPairs += m.anc[d].Count()
		for a := range m.anc[d].All() {
			if !m.desc[a].Contains(dag.NodeID(d)) {
				return fmt.Errorf("paper: pair (%d,%d) present in anc but not mirrored in desc", a, d)
			}
		}
	}
	if ancPairs != m.pairs {
		return fmt.Errorf("paper: anc rows hold %d pairs, counter says %d", ancPairs, m.pairs)
	}
	descPairs := 0
	for a := range m.desc {
		descPairs += m.desc[a].Count()
	}
	if descPairs != m.pairs {
		return fmt.Errorf("paper: desc rows hold %d pairs, counter says %d", descPairs, m.pairs)
	}
	return nil
}

// Diff returns a short description of the first few pair differences, for
// test failure messages.
func (m *Matrix) Diff(o *Matrix) string {
	var out []string
	limit := 8
	for d := range m.anc {
		for a := range m.anc[d].All() {
			if !o.IsAncestor(a, dag.NodeID(d)) && len(out) < limit {
				out = append(out, fmt.Sprintf("-(%d,%d)", a, dag.NodeID(d)))
			}
		}
	}
	for d := range o.anc {
		for a := range o.anc[d].All() {
			if !m.IsAncestor(a, dag.NodeID(d)) && len(out) < limit {
				out = append(out, fmt.Sprintf("+(%d,%d)", a, dag.NodeID(d)))
			}
		}
	}
	return fmt.Sprintf("pairs %d vs %d: %v", m.pairs, o.pairs, out)
}

// Compute is Algorithm Reach (Fig.4 of the paper): it fills M from the edge
// relations by dynamic programming along the topological order — when node d
// is processed in the backward pass, the ancestor rows of all its parents
// are already complete, so anc(d) = ⋃_{p ∈ parent(d)} ({p} ∪ anc(p)), a row
// union per parent. The forward pass then builds the descendant rows the
// same way from the children (forward L is children-first), which yields the
// exact transpose without touching individual pairs.
//
// (Fig.4 line 4 as printed omits the parents themselves; including them is
// evidently intended, otherwise M would be empty. See DESIGN.md.)
func Compute(d *dag.DAG, topo *Topo) *Matrix {
	m := NewMatrix(d.Cap())
	list := topo.Nodes()
	for k := len(list) - 1; k >= 0; k-- { // backward: ancestors first
		node := list[k]
		var row Row
		for _, p := range d.Parents(node) {
			if !d.Alive(p) {
				continue
			}
			row.Or(m.anc[p])
			row.Set(p)
		}
		m.anc[node] = row
		m.pairs += row.Count()
	}
	for _, node := range list { // forward: descendants first
		var row Row
		for _, c := range d.Children(node) {
			if !d.Alive(c) {
				continue // same defensive filter as the parent-side pass
			}
			row.Or(m.desc[c])
			row.Set(c)
		}
		m.desc[node] = row
	}
	return m
}

// ComputeNaive builds M by a full DFS from every node — the asymptotic bound
// is the same but without sharing ancestor rows between nodes, it re-walks
// overlapping regions and is slower in practice. Kept as the ablation
// baseline and as a test oracle for Compute.
func ComputeNaive(d *dag.DAG) *Matrix {
	m := NewMatrix(d.Cap())
	seen := NewRow(d.Cap())
	for _, src := range d.Nodes() {
		seen.Reset()
		stack := []dag.NodeID{src}
		var row Row
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, c := range d.Children(x) {
				if seen.Set(c) {
					row.Set(c)
					stack = append(stack, c)
				}
			}
		}
		m.desc[src] = row
		m.pairs += row.Count()
		for c := range row.All() {
			m.anc[c].Set(src)
		}
	}
	return m
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
	// Ancestors first (descending position in L): parents are final when read.
	slices.SortFunc(lr, func(a, b dag.NodeID) int { return cmp.Compare(topo.Pos(b), topo.Pos(a)) })

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
