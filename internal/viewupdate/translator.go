// Package viewupdate implements the relational side of the paper (§4):
// translating group updates ΔV over the (key-preserving, SPJ-defined) edge
// views into base-table updates ΔR.
//
//   - Deletions: Algorithm delete (Fig.9) — PTIME under key preservation
//     (Theorem 1), plus the minimal-deletion variants of Theorem 3 (exact
//     branch-and-bound and a greedy set-cover heuristic). All three choose
//     from one instance: the valid sources of every ΔV edge.
//   - Insertions: the heuristic Algorithm insert of §4.3/Appendix A — tuple
//     templates with variables, symbolic evaluation to find type-1/type-2
//     side effects, a SAT encoding, and a DPLL solve. The paper's Walksat
//     may give up on a satisfiable encoding; DPLL rejects exactly the
//     unsatisfiable ones.
package viewupdate

import (
	"fmt"
	"sort"

	"rxview/internal/atg"
	"rxview/internal/dag"
	"rxview/internal/relational"
	"rxview/internal/slab"
)

// Translator maintains the source index over the edge views: for every base
// tuple, how many live view edges it derives. With key preservation this
// makes the deletable source Sr(Q, t) of any edge an O(1) lookup, which is
// what turns the updatability analysis PTIME (Theorem 1).
type Translator struct {
	C  *atg.Compiled
	DB *relational.Database
	D  *dag.DAG

	src   sourceIndex
	fresh int64 // the last fresh value's n (see freshValue); 0 before the first
}

// sourceIndex is the count of live edges derived from each source tuple,
// keyed by SourceKey.AppendKey. The map leads to a position in n and not to
// the count, so that moving the count of a known source assigns nothing into
// the map (an assignment has to allocate its key, a lookup does not). Entries
// are never removed — a count that drops to zero stays — so the keys share an
// arena.
type sourceIndex struct {
	ids  map[string]int32
	n    []int32
	keys slab.Strings
}

func (x *sourceIndex) add(key []byte, delta int32) {
	id, ok := x.ids[string(key)]
	if !ok {
		id = int32(len(x.n))
		x.ids[x.keys.Add(key)] = id
		x.n = append(x.n, 0)
	}
	x.n[id] += delta
}

// count returns the number of live edges the source with the encoded key derives.
func (x *sourceIndex) count(key string) int {
	if id, ok := x.ids[key]; ok {
		return int(x.n[id])
	}
	return 0
}

// NewTranslator builds the translator and its source index by scanning the
// live edges of the view.
func NewTranslator(c *atg.Compiled, db *relational.Database, d *dag.DAG) *Translator {
	tr := &Translator{C: c, DB: db, D: d, src: sourceIndex{ids: make(map[string]int32)}}
	for _, u := range d.Nodes() {
		for _, v := range d.Children(u) {
			tr.bump(dag.Edge{Parent: u, Child: v}, +1)
		}
	}
	return tr
}

// Fresh returns the fresh-value counter, for a caller that unwinds what the
// translator minted.
func (tr *Translator) Fresh() int64 { return tr.fresh }

// SetFresh puts back a counter value Fresh returned.
func (tr *Translator) SetFresh(n int64) { tr.fresh = n }

// rule returns the rule of an edge if its edges have a deletable source, or
// nil for projection-rule edges (which have no independent source).
func (tr *Translator) rule(e dag.Edge) *atg.CompiledRule {
	if r := tr.C.Rule(tr.D.Type(e.Parent), tr.D.Type(e.Child)); r != nil && r.Prov != nil {
		return r
	}
	return nil
}

// sources returns the deletable source Sr(Q, t) of an edge, or nil for
// projection-rule edges.
func (tr *Translator) sources(e dag.Edge) []atg.SourceKey {
	r := tr.rule(e)
	if r == nil {
		return nil
	}
	return r.SourceTuples(tr.D.Attr(e.Parent), tr.D.Attr(e.Child))
}

func (tr *Translator) bump(e dag.Edge, delta int32) {
	r := tr.rule(e)
	if r == nil {
		return
	}
	parent, child := tr.D.Attr(e.Parent), tr.D.Attr(e.Child)
	var a [relational.KeyBufLen]byte
	for i := range r.Prov.Tables {
		tr.src.add(r.AppendSourceKey(a[:0], i, parent, child), delta)
	}
}

// NoteEdgeInserted / NoteEdgeDeleted keep the source index current as the
// system applies ΔV to the view.
func (tr *Translator) NoteEdgeInserted(e dag.Edge) { tr.bump(e, +1) }

// NoteEdgeDeleted decrements the index for a removed edge.
func (tr *Translator) NoteEdgeDeleted(e dag.Edge) { tr.bump(e, -1) }

// EqualSources compares the source index with another translator's — in
// practice a fresh NewTranslator over the same view, which is how
// core.CheckConsistency covers the Note* maintenance above (atomic rollback
// replays it inversely, followers replay it from the log). Zero counts are
// pruned: a decrement leaves an entry behind where a rebuild has none.
func (tr *Translator) EqualSources(want *Translator) error {
	for _, keys := range [2]map[string]int32{tr.src.ids, want.src.ids} {
		for k := range keys {
			if n, w := tr.src.count(k), want.src.count(k); n != w {
				return fmt.Errorf("viewupdate: source %q derives %d live edges, index says %d", k, w, n)
			}
		}
	}
	return nil
}

// RejectedError reports that ΔV is not translatable: carrying it out would
// necessarily cause relational view side effects.
type RejectedError struct{ Reason string }

func (e *RejectedError) Error() string { return "viewupdate: rejected: " + e.Reason }

// TranslateDelete is Algorithm delete (Fig.9). For each view deletion it
// finds a source tuple (Sj, tj) whose removal deletes the edge without side
// effects — i.e. (Sj, tj) is not in the deletable source of any view tuple
// that survives ΔV. It returns the group deletion ΔR, or a *RejectedError
// if some edge has no side-effect-free source (the updatability answer is
// then "no", decided in PTIME).
//
// Among valid sources it greedily prefers those covering the most not-yet-
// covered ΔV edges, so ΔR also tends to be small (exact minimality is
// NP-complete — Theorem 3; see MinimalDelete).
func (tr *Translator) TranslateDelete(dv []dag.Edge) ([]relational.Mutation, error) {
	in, err := tr.deleteInstance(dv)
	if err != nil {
		return nil, err
	}
	chosen := make(map[string]atg.SourceKey) // ΔR, deduped
	covered := make([]bool, len(dv))
	for i, srcs := range in.valid {
		if covered[i] {
			continue
		}
		best, bestCover := 0, -1
		for k, enc := range in.enc[i] {
			n := 0
			for _, j := range in.cover[enc] {
				if !covered[j] {
					n++
				}
			}
			if n > bestCover {
				best, bestCover = k, n
			}
		}
		enc := in.enc[i][best]
		if _, dup := chosen[enc]; !dup {
			chosen[enc] = srcs[best]
			for _, j := range in.cover[enc] {
				covered[j] = true
			}
		}
	}
	return tr.sourcesToDeletions(chosen)
}

// deleteInstance is a group deletion ΔV seen through its valid sources. A
// source tuple is valid iff every live edge it derives is in ΔV, so deleting
// it has no side effect; a valid ΔR is a set of valid sources that covers
// every ΔV edge.
type deleteInstance struct {
	valid [][]atg.SourceKey // per ΔV edge, its valid sources in Sr(Q, t) order
	enc   [][]string        // their encodings, parallel to valid
	cover map[string][]int  // valid source -> the ΔV edges it derives
}

// deleteInstance builds the instance for dv, or returns a *RejectedError
// naming the first edge that has no deletable source, else the first edge
// that has no valid one.
func (tr *Translator) deleteInstance(dv []dag.Edge) (*deleteInstance, error) {
	in := &deleteInstance{
		valid: make([][]atg.SourceKey, len(dv)),
		enc:   make([][]string, len(dv)),
		cover: make(map[string][]int),
	}
	uses := make(map[string]int) // how many ΔV edges list each source
	for i, e := range dv {
		srcs := tr.sources(e)
		if len(srcs) == 0 {
			return nil, &RejectedError{Reason: fmt.Sprintf(
				"edge %s of relation %s has no deletable source (sequence-child edge)",
				e, tr.D.EdgeRelationName(e))}
		}
		encs := make([]string, len(srcs))
		for k, s := range srcs {
			encs[k] = s.Encode()
			uses[encs[k]]++
		}
		in.valid[i], in.enc[i] = srcs, encs
	}
	for i, e := range dv {
		srcs, encs := in.valid[i][:0], in.enc[i][:0]
		for k, enc := range in.enc[i] {
			if tr.src.count(enc) == uses[enc] {
				srcs, encs = append(srcs, in.valid[i][k]), append(encs, enc)
				in.cover[enc] = append(in.cover[enc], i)
			}
		}
		if len(srcs) == 0 {
			return nil, &RejectedError{Reason: fmt.Sprintf(
				"edge %s: every source tuple also derives a surviving view tuple (deletion has relational side effects)",
				e)}
		}
		in.valid[i], in.enc[i] = srcs, encs
	}
	return in, nil
}

func (tr *Translator) sourcesToDeletions(chosen map[string]atg.SourceKey) ([]relational.Mutation, error) {
	keys := make([]string, 0, len(chosen))
	for k := range chosen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]relational.Mutation, 0, len(keys))
	for _, k := range keys {
		s := chosen[k]
		rel := tr.DB.Rel(s.Table)
		if rel == nil {
			return nil, fmt.Errorf("viewupdate: no base table %s", s.Table)
		}
		row, ok := rel.LookupKey(s.Key)
		if !ok {
			return nil, fmt.Errorf("viewupdate: source tuple %s missing from %s (index out of sync)",
				s.Key, s.Table)
		}
		out = append(out, relational.Mutation{Table: s.Table, Tuple: row.Clone()})
	}
	return out, nil
}
