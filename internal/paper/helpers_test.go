package paper

import (
	"math/bits"
	"sort"

	"rxview/internal/dag"
)

// Methods only this package's tests call.

// AncestorCount returns |anc(d)|.
func (m *Matrix) AncestorCount(d dag.NodeID) int { return m.AncestorRow(d).Count() }

// DescendantCount returns |desc(a)|.
func (m *Matrix) DescendantCount(a dag.NodeID) int { return m.DescendantRow(a).Count() }

// AncestorList returns the ancestors of d as a sorted slice (bitset
// iteration is ascending by construction).
func (m *Matrix) AncestorList(d dag.NodeID) []dag.NodeID {
	return m.AncestorRow(d).Slice()
}

// AddPair records that a is an ancestor of d.
func (m *Matrix) AddPair(a, d dag.NodeID) {
	if a == d {
		return
	}
	m.ensure(a)
	m.ensure(d)
	if m.anc[d].Set(a) {
		m.desc[a].Set(d)
		m.pairs++
	}
}

// RemovePair deletes the (a, d) pair if present.
func (m *Matrix) RemovePair(a, d dag.NodeID) {
	if d < 0 || int(d) >= len(m.anc) || a < 0 || int(a) >= len(m.desc) {
		return
	}
	if m.anc[d].Unset(a) {
		m.desc[a].Unset(d)
		m.pairs--
	}
}

// AndNot subtracts src from r word by word and returns the number of cleared
// bits.
func (r *Row) AndNot(src Row) int {
	dst := *r
	n := len(dst)
	if len(src) < n {
		n = len(src)
	}
	removed := 0
	for i := 0; i < n; i++ {
		if rm := dst[i] & src[i]; rm != 0 {
			removed += bits.OnesCount64(rm)
			dst[i] &^= rm
		}
	}
	return removed
}

// Empty reports whether no bit is set.
func (r Row) Empty() bool {
	for _, w := range r {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

func sortedKeys(set map[dag.NodeID]struct{}) []dag.NodeID {
	out := make([]dag.NodeID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// InsertEdgeClosure adds the pairs ({u} ∪ anc(u)) × ({v} ∪ desc(v)) for a
// new edge (u,v) — the per-pair formulation the bitset Matrix replaced with
// row unions. Kept for the maintenance benchmarks.
func (s *Sparse) InsertEdgeClosure(u, v dag.NodeID) {
	s.ensure(u)
	s.ensure(v)
	ancs := append(sortedKeys(s.Ancestors(u)), u)
	descs := append(sortedKeys(s.Descendants(v)), v)
	for _, a := range ancs {
		for _, d := range descs {
			s.AddPair(a, d)
		}
	}
}
