package viewupdate

import (
	"sort"

	"rxview/internal/atg"
	"rxview/internal/dag"
	"rxview/internal/relational"
)

// MinimalDelete solves the minimal view deletion problem of §4.2: among all
// valid ΔR's, find one with the fewest base-tuple deletions. The problem is
// NP-complete even under key preservation (Theorem 3, by reduction from
// minimum set cover), so exact search is exponential; Exact uses branch and
// bound and is intended for small ΔV, Greedy is the polynomial heuristic
// (the classic ln(n)-approximate set-cover greedy).
type MinimalDelete struct {
	tr *Translator

	edges   []dag.Edge
	valid   [][]string       // per edge, encoded valid sources
	cover   map[string][]int // source -> edges it covers
	byEnc   map[string]atg.SourceKey
	uniqSrc []string // all distinct valid sources, sorted
}

// NewMinimalDelete prepares the instance; it returns a *RejectedError if
// some edge has no valid source (then no ΔR exists at all).
func NewMinimalDelete(tr *Translator, dv []dag.Edge) (*MinimalDelete, error) {
	m := &MinimalDelete{
		tr:    tr,
		cover: make(map[string][]int),
		byEnc: make(map[string]atg.SourceKey),
	}
	uses := make(map[string]int)
	all := make([][]atg.SourceKey, len(dv))
	for i, e := range dv {
		srcs := tr.sources(e)
		if len(srcs) == 0 {
			return nil, &RejectedError{Reason: "edge " + e.String() + " has no deletable source"}
		}
		all[i] = srcs
		for _, s := range srcs {
			uses[s.Encode()]++
		}
	}
	for i, e := range dv {
		var vs []string
		for _, s := range all[i] {
			enc := s.Encode()
			if tr.src.count(enc) == uses[enc] {
				vs = append(vs, enc)
				m.byEnc[enc] = s
				m.cover[enc] = append(m.cover[enc], i)
			}
		}
		if len(vs) == 0 {
			return nil, &RejectedError{Reason: "edge " + e.String() + " has no side-effect-free source"}
		}
		m.edges = append(m.edges, e)
		m.valid = append(m.valid, vs)
	}
	for enc := range m.cover {
		m.uniqSrc = append(m.uniqSrc, enc)
	}
	sort.Strings(m.uniqSrc)
	return m, nil
}

// Greedy returns a small (not necessarily minimum) ΔR by repeatedly picking
// the source covering the most uncovered edges.
func (m *MinimalDelete) Greedy() ([]relational.Mutation, error) {
	covered := make([]bool, len(m.edges))
	remaining := len(m.edges)
	chosen := map[string]atg.SourceKey{}
	for remaining > 0 {
		best, bestN := "", 0
		for _, enc := range m.uniqSrc {
			if _, dup := chosen[enc]; dup {
				continue
			}
			n := 0
			for _, j := range m.cover[enc] {
				if !covered[j] {
					n++
				}
			}
			if n > bestN {
				best, bestN = enc, n
			}
		}
		if bestN == 0 {
			return nil, &RejectedError{Reason: "greedy cover stuck (unreachable: instance was validated)"}
		}
		chosen[best] = m.byEnc[best]
		for _, j := range m.cover[best] {
			if !covered[j] {
				covered[j] = true
				remaining--
			}
		}
	}
	return m.tr.sourcesToDeletions(chosen)
}

// Exact returns a minimum-size ΔR by branch and bound over the distinct
// valid sources. Exponential in the worst case (Theorem 3); use for small
// ΔV or in tests.
func (m *MinimalDelete) Exact() ([]relational.Mutation, error) {
	// Upper bound from greedy.
	greedy, err := m.Greedy()
	if err != nil {
		return nil, err
	}
	bestSize := len(greedy)
	var bestSet map[string]atg.SourceKey

	n := len(m.edges)
	var chosen []string
	var search func(edgeIdx int, covered []bool, count int)
	search = func(edgeIdx int, covered []bool, count int) {
		if count >= bestSize {
			return // bound
		}
		// Next uncovered edge.
		for edgeIdx < n && covered[edgeIdx] {
			edgeIdx++
		}
		if edgeIdx == n {
			bestSize = count
			bestSet = map[string]atg.SourceKey{}
			for _, enc := range chosen {
				bestSet[enc] = m.byEnc[enc]
			}
			return
		}
		for _, enc := range m.valid[edgeIdx] {
			newlyCovered := []int{}
			for _, j := range m.cover[enc] {
				if !covered[j] {
					covered[j] = true
					newlyCovered = append(newlyCovered, j)
				}
			}
			chosen = append(chosen, enc)
			search(edgeIdx+1, covered, count+1)
			chosen = chosen[:len(chosen)-1]
			for _, j := range newlyCovered {
				covered[j] = false
			}
		}
	}
	search(0, make([]bool, n), 0)

	if bestSet == nil {
		return greedy, nil // greedy was already optimal
	}
	return m.tr.sourcesToDeletions(bestSet)
}
