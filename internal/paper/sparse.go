package paper

import (
	"fmt"

	"rxview/internal/dag"
)

// Sparse is the relation representation of the reachability matrix M — the
// map-of-maps layout the paper describes (M stored as a relation
// M(anc, desc) because |M| ≪ n² in practice). It was the production
// representation before the bitset Matrix replaced it; it is kept as the
// differential-test oracle and the memory-bound ablation baseline: per-pair
// storage wins when the view is huge and shallow (|M| ≪ n²/64 pairs), the
// dense rows win everywhere word-level algebra pays, which is every
// maintenance and // evaluation path this system has.
type Sparse struct {
	anc   []map[dag.NodeID]struct{} // node -> its ancestors
	desc  []map[dag.NodeID]struct{} // node -> its descendants
	pairs int
}

// NewSparse returns an empty sparse matrix sized for the DAG.
func NewSparse(capacity int) *Sparse {
	return &Sparse{
		anc:  make([]map[dag.NodeID]struct{}, capacity),
		desc: make([]map[dag.NodeID]struct{}, capacity),
	}
}

func (s *Sparse) ensure(id dag.NodeID) {
	for int(id) >= len(s.anc) {
		s.anc = append(s.anc, nil)
		s.desc = append(s.desc, nil)
	}
}

// IsAncestor reports whether a is a proper ancestor of d.
func (s *Sparse) IsAncestor(a, d dag.NodeID) bool {
	if d < 0 || int(d) >= len(s.anc) || s.anc[d] == nil {
		return false
	}
	_, ok := s.anc[d][a]
	return ok
}

// Ancestors returns the ancestor set of d. The returned map is live; callers
// must not mutate it.
func (s *Sparse) Ancestors(d dag.NodeID) map[dag.NodeID]struct{} {
	if d < 0 || int(d) >= len(s.anc) {
		return nil
	}
	return s.anc[d]
}

// Descendants returns the descendant set of a. The returned map is live;
// callers must not mutate it.
func (s *Sparse) Descendants(a dag.NodeID) map[dag.NodeID]struct{} {
	if a < 0 || int(a) >= len(s.desc) {
		return nil
	}
	return s.desc[a]
}

// AddPair records that a is an ancestor of d.
func (s *Sparse) AddPair(a, d dag.NodeID) {
	if a == d {
		return
	}
	s.ensure(a)
	s.ensure(d)
	if s.anc[d] == nil {
		s.anc[d] = make(map[dag.NodeID]struct{})
	}
	if _, dup := s.anc[d][a]; dup {
		return
	}
	s.anc[d][a] = struct{}{}
	if s.desc[a] == nil {
		s.desc[a] = make(map[dag.NodeID]struct{})
	}
	s.desc[a][d] = struct{}{}
	s.pairs++
}

// ComputeSparseReach is Algorithm Reach (Fig.4) over the sparse
// representation: the same dynamic program along the backward topological
// order as the bitset Compute, with per-pair map inserts in place of row
// unions — exactly the pre-bitset production code path. Benchmarks compare
// it against Compute to isolate what the representation change alone buys
// (same algorithm, same precomputed L).
func ComputeSparseReach(d *dag.DAG, topo *Topo) *Sparse {
	s := NewSparse(d.Cap())
	list := topo.Nodes()
	for k := len(list) - 1; k >= 0; k-- { // backward: ancestors first
		node := list[k]
		for _, p := range d.Parents(node) {
			if !d.Alive(p) {
				continue
			}
			s.AddPair(p, node)
			for a := range s.Ancestors(p) {
				s.AddPair(a, node)
			}
		}
	}
	return s
}

// ComputeSparse builds the sparse matrix by a full DFS from every node —
// deliberately independent of the bitset code paths, so differential tests
// compare two implementations that share nothing but the DAG.
func ComputeSparse(d *dag.DAG) *Sparse {
	s := NewSparse(d.Cap())
	for _, src := range d.Nodes() {
		stack := []dag.NodeID{src}
		seen := map[dag.NodeID]bool{src: true}
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, c := range d.Children(x) {
				if !seen[c] {
					seen[c] = true
					s.AddPair(src, c)
					stack = append(stack, c)
				}
			}
		}
	}
	return s
}

// EqualSparse reports whether the bitset matrix and a sparse matrix contain
// exactly the same pairs — both directions, so a desc-row regression in the
// bitset mirror fails the oracle even when the anc rows are intact.
func (m *Matrix) EqualSparse(s *Sparse) bool {
	if m.pairs != s.pairs {
		return false
	}
	for d := range m.anc {
		for a := range m.anc[d].All() {
			if !s.IsAncestor(a, dag.NodeID(d)) {
				return false
			}
		}
	}
	for a := range m.desc {
		row := m.desc[a]
		if row.Count() != len(s.Descendants(dag.NodeID(a))) {
			return false
		}
		for d := range row.All() {
			if _, ok := s.Descendants(dag.NodeID(a))[d]; !ok {
				return false
			}
		}
	}
	return true
}

// DiffSparse describes the first few pair differences against a sparse
// matrix, for test failure messages.
func (m *Matrix) DiffSparse(s *Sparse) string {
	var out []string
	limit := 8
	for d := range m.anc {
		for a := range m.anc[d].All() {
			if !s.IsAncestor(a, dag.NodeID(d)) && len(out) < limit {
				out = append(out, fmt.Sprintf("-(%d,%d)", a, dag.NodeID(d)))
			}
		}
	}
	for d := range s.anc {
		for a := range s.anc[d] {
			if !m.IsAncestor(a, dag.NodeID(d)) && len(out) < limit {
				out = append(out, fmt.Sprintf("+(%d,%d)", a, dag.NodeID(d)))
			}
		}
	}
	return fmt.Sprintf("pairs %d vs %d: %v", m.pairs, s.pairs, out)
}
