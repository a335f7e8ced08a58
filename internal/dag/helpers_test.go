package dag

// Accessors only this package's tests call.

import (
	"unsafe"

	"rxview/internal/cow"
)

// ChainDAG is chainDAG for the external test package.
var ChainDAG = chainDAG

// NodesOfType returns the nodes of an element type live at the sealed
// epoch, in id order.
func (v *Version) NodesOfType(typ string) []NodeID {
	return liveSorted(v.byType[typ], v.alive.At)
}

// countKinds counts the ops of a delta per kind.
func countKinds(ops []DeltaOp) map[DeltaKind]int {
	n := make(map[DeltaKind]int)
	for _, op := range ops {
		n[op.Kind]++
	}
	return n
}

// Edges returns all live edges grouped by (parent type, child type) — the
// edge_A_B relations of the relational coding V_σ. Keys are "A→B".
func (d *DAG) Edges() map[string][]Edge {
	out := make(map[string][]Edge)
	for _, u := range d.Nodes() {
		for _, v := range d.children.row(u) {
			k := d.Type(u) + "→" + d.Type(v)
			out[k] = append(out[k], Edge{u, v})
		}
	}
	return out
}

// ChunkBytesWritten is what the writer wrote into the children, parents and
// alive arrays between two seals of one DAG, a then b: the chunks of b not
// shared with a, times their size in bytes. A chunk past a's length is
// counted too, as written in place.
func ChunkBytesWritten(a, b *Version) int {
	return written(a.children, b.children) + written(a.parents, b.parents) + written(a.alive, b.alive)
}

func written[T any](a, b cow.Sealed[T]) int {
	var zero T
	n := 0
	for i := 0; i < b.Len(); i += cow.ChunkSize {
		if i >= a.Len() || !a.SameChunk(b, i) {
			n++
		}
	}
	return n * cow.ChunkSize * int(unsafe.Sizeof(zero))
}
