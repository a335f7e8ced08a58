package dag

import (
	"maps"

	"rxview/internal/relational"
)

// Clone returns an independent structural copy of the DAG. Every mutable
// structure is deep-copied — in particular the per-node adjacency rows and
// the Skolem registry maps. Node attribute tuples and type strings are
// immutable once created and are shared.
//
// Snapshot publication does NOT use Clone anymore: Seal produces an
// immutable copy-on-write Version in O(Δ). Clone remains the full-copy
// path — the differential baseline for the COW machinery, the oracle for
// aliasing tests, and the right tool when the copy must itself be mutable
// (it returns a live *DAG, not a frozen Version).
//
// Clone panics inside a transaction: a copy of speculative, possibly
// rolled-back state is never meaningful.
func (d *DAG) Clone() *DAG {
	if d.journal != nil {
		panic("dag: Clone inside a transaction")
	}
	c := &DAG{
		types:     append([]string(nil), d.types...),
		attrs:     append([]relational.Tuple(nil), d.attrs...),
		children:  d.children.clone(),
		parents:   d.parents.clone(),
		alive:     d.alive.Clone(),
		root:      d.root,
		gen:       maps.Clone(d.gen),
		byType:    make(map[string][]NodeID, len(d.byType)),
		typeLive:  maps.Clone(d.typeLive),
		edgeCount: d.edgeCount,
		liveCount: d.liveCount,
	}
	for typ, ids := range d.byType {
		c.byType[typ] = append([]NodeID(nil), ids...)
	}
	return c
}
