// Clean cases: reads, rebinding, and construction of fresh versions.
package a

import (
	"rxview"
	"rxview/internal/dag"
)

func read(v *dag.Version) dag.NodeID {
	return v.Children(v.Root)[0]
}

func rebind(v *dag.Version, w *dag.Version) *dag.Version {
	v = w // reassigning the variable is not a mutation of the value
	return v
}

// seal builds the next version: writes to a freshly constructed value are
// construction, not mutation.
func seal(ids []dag.NodeID) *dag.Version {
	v := &dag.Version{}
	v.Blocks = make([]dag.NodeID, len(ids))
	copy(v.Blocks, ids)
	v.Root = v.Blocks[0]
	return v
}

func sealSnapshot(gen uint64) *rxview.Snapshot {
	s := new(rxview.Snapshot)
	s.Gen = gen
	return s
}

func copyOut(v *dag.Version, dst []dag.NodeID) {
	copy(dst, v.Children(0)) // reading through the accessor is fine
}

// A copy of the accessor's result is the caller's own.
func copyThenStore(v *dag.Version, x dag.NodeID) {
	ks := append([]dag.NodeID(nil), v.Children(0)...)
	ks[0] = x
}

// Bound twice: the analyzer does not follow the flow, and says nothing.
func reboundLocal(v *dag.Version, x dag.NodeID) {
	ks := v.Children(0)
	ks = append([]dag.NodeID(nil), ks...)
	ks[0] = x
}
