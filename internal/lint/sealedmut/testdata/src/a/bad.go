// Seeded violations: every way of mutating a sealed version.
package a

import (
	"rxview"
	"rxview/internal/dag"
)

func fieldStore(v *dag.Version) {
	v.Root = 7 // want "mutating sealed"
}

func elementStore(v *dag.Version) {
	v.Blocks[0] = 7 // want "mutating sealed"
}

func throughPointer(v *dag.Version) {
	*v = dag.Version{} // want "mutating sealed"
}

func aliasedRow(v *dag.Version) {
	v.Children(3)[0] = 7 // want "aliasing accessor"
}

func throughReader(r dag.Reader) {
	r.Parents(3)[0] = 7 // want "aliasing accessor"
}

func throughReaderNodes(r dag.Reader) {
	r.Nodes()[0] = 7 // want "aliasing accessor"
}

func copyInto(v *dag.Version, src []dag.NodeID) {
	copy(v.Blocks, src) // want "mutating sealed"
}

func snapshotStore(s *rxview.Snapshot) {
	s.Gen++ // want "mutating sealed"
}

func incDec(v *dag.Version) {
	v.Blocks[1]++ // want "mutating sealed"
}

// The same stores through a local bound to the accessor's result.
func aliasedLocal(v *dag.Version, x dag.NodeID) {
	ks := v.Children(3)
	ks[0] = x // want "aliasing accessor"
}

func aliasedLocalCopy(r dag.Reader, src []dag.NodeID) {
	var ps []dag.NodeID
	ps = r.Parents(3)
	copy(ps, src) // want "aliasing accessor"
}

func aliasedLocalSwap(v *dag.Version) {
	ks := v.Children(v.Root)
	ks[0], ks[1] = ks[1], ks[0] // want "aliasing accessor"
}
