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
	*deleteInstance

	byEnc   map[string]atg.SourceKey
	uniqSrc []string // all distinct valid sources, sorted
}

// NewMinimalDelete prepares the instance; it returns TranslateDelete's
// *RejectedError if some edge has no valid source (then no ΔR exists at all).
func NewMinimalDelete(tr *Translator, dv []dag.Edge) (*MinimalDelete, error) {
	in, err := tr.deleteInstance(dv)
	if err != nil {
		return nil, err
	}
	m := &MinimalDelete{tr: tr, deleteInstance: in, byEnc: make(map[string]atg.SourceKey, len(in.cover))}
	for i, encs := range in.enc {
		for k, enc := range encs {
			m.byEnc[enc] = in.valid[i][k]
		}
	}
	for enc := range in.cover {
		m.uniqSrc = append(m.uniqSrc, enc)
	}
	sort.Strings(m.uniqSrc)
	return m, nil
}

// Greedy returns a small (not necessarily minimum) ΔR by repeatedly picking
// the source covering the most uncovered edges.
func (m *MinimalDelete) Greedy() ([]relational.Mutation, error) {
	covered := make([]bool, len(m.valid))
	remaining := len(m.valid)
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

	n := len(m.valid)
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
		for _, enc := range m.enc[edgeIdx] {
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
