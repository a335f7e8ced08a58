package dag

import (
	"slices"

	"rxview/internal/relational"
)

// journal records DAG mutations so a speculative update (e.g. publishing a
// subtree ST(A,t) before the relational translation is accepted) can be
// rolled back if the update is rejected — the paper's framework rejects ΔX
// "as early as possible" and must leave the view untouched.
//
// Mutations are kept as a single chronological log and undone in reverse, so
// arbitrary interleavings of node/edge adds and removes restore exactly.
type journal struct {
	ops []jop
}

type jop struct {
	kind                jopKind
	fresh               bool // jNodeAdd: a new id, not a resurrection
	node                NodeID
	edge                Edge
	childPos, parentPos int // original positions for jEdgeDel undo
}

type jopKind uint8

const (
	jNodeAdd jopKind = iota
	jNodeDel
	jEdgeAdd
	jEdgeDel
)

func (d *DAG) logOp(op jop) {
	if d.journal != nil {
		d.journal.ops = append(d.journal.ops, op)
	}
}

// Begin starts recording mutations. Nested transactions are not supported;
// Begin panics if one is already open (programming error).
func (d *DAG) Begin() {
	if d.journal != nil {
		panic("dag: nested Begin")
	}
	d.journal = &journal{}
}

// InTxn reports whether a journal is open.
func (d *DAG) InTxn() bool { return d.journal != nil }

// Commit discards the journal, keeping all mutations.
func (d *DAG) Commit() {
	if d.journal == nil {
		panic("dag: Commit without Begin")
	}
	d.journal = nil
}

// Mark returns a savepoint inside the open journal: the point RollbackTo and
// ChangesSince measure from. A transaction that stages several updates over
// one long-lived journal gives each update its own mark, so a rejected update
// unwinds alone while the journal keeps covering the whole group.
func (d *DAG) Mark() int {
	if d.journal == nil {
		panic("dag: Mark without Begin")
	}
	return len(d.journal.ops)
}

// ChangesSince returns the mutations recorded since the given savepoint:
// added nodes, added edges and removed edges. Valid only inside a
// transaction; ChangesSince(0) covers everything since Begin.
func (d *DAG) ChangesSince(mark int) (nodeAdds []NodeID, edgeAdds, edgeDels []Edge) {
	if d.journal == nil {
		panic("dag: ChangesSince without Begin")
	}
	for _, op := range d.journal.ops[mark:] {
		switch op.kind {
		case jNodeAdd:
			nodeAdds = append(nodeAdds, op.node)
		case jEdgeAdd:
			edgeAdds = append(edgeAdds, op.edge)
		case jEdgeDel:
			edgeDels = append(edgeDels, op.edge)
		}
	}
	return nodeAdds, edgeAdds, edgeDels
}

// Rollback undoes every mutation recorded since Begin, in reverse
// chronological order, and closes the journal.
func (d *DAG) Rollback() {
	if d.journal == nil {
		panic("dag: Rollback without Begin")
	}
	ops := d.journal.ops
	d.journal = nil // avoid re-journaling the undo operations
	d.undo(ops)
}

// RollbackTo undoes every mutation recorded after the given savepoint and
// truncates the journal back to it; the journal stays open, keeping the
// mutations before the mark. Everything before the savepoint can still be
// undone by a later Rollback (or RollbackTo an earlier mark).
func (d *DAG) RollbackTo(mark int) {
	j := d.journal
	if j == nil {
		panic("dag: RollbackTo without Begin")
	}
	if mark < 0 || mark > len(j.ops) {
		panic("dag: RollbackTo with invalid mark")
	}
	ops := j.ops[mark:]
	j.ops = j.ops[:mark]
	d.journal = nil // avoid re-journaling the undo operations
	d.undo(ops)
	d.journal = j
}

// undo reverses a suffix of journal operations, newest first. The journal
// must be detached while it runs so the inverse mutations are not recorded.
func (d *DAG) undo(ops []jop) {
	for i := len(ops) - 1; i >= 0; i-- {
		op := ops[i]
		switch op.kind {
		case jEdgeAdd:
			d.RemoveEdge(op.edge.Parent, op.edge.Child)
		case jEdgeDel:
			// Re-insert at the original positions so sibling order (which
			// the XML view semantics exposes) is restored exactly.
			d.insertRef(&d.children, op.edge.Parent, op.childPos, op.edge.Child)
			d.insertRef(&d.parents, op.edge.Child, op.parentPos, op.edge.Parent)
			d.edgeCount++
		case jNodeAdd:
			// Incident edges were necessarily added after the node and
			// have already been removed above.
			if d.alive.At(int(op.node)) {
				d.setAlive(op.node, false)
				d.unlist(op.node)
			}
			if op.fresh {
				d.free(op.node)
			}
		case jNodeDel:
			d.resurrect(op.node)
		}
	}
}

// free takes back the id of an undone allocation, so that an unwound update
// leaves no trace in the id space: the next allocation gets the same id
// here and on a replica that never saw the unwound one, which is what lets
// the replica replay the log. Undo runs newest first, so the id is always
// the newest one. A sealed version never covers it (Seal refuses an open
// journal), so the arrays shrink in place and the type's list drops it in
// place.
func (d *DAG) free(id NodeID) {
	typ := d.types[id]
	d.written.Write(int(id))
	d.bodyLen -= identityLen(typ, d.attrs[id]) + childListLen(d.children.row(id))
	var a [relational.KeyBufLen]byte
	delete(d.gen, string(appendGenKey(a[:0], typ, d.attrs[id])))
	d.byType[typ] = slices.DeleteFunc(d.byType[typ], func(x NodeID) bool { return x == id })
	d.types, d.attrs = d.types[:id], d.attrs[:id]
	d.children.truncate(id)
	d.parents.truncate(id)
	d.alive.Truncate(int(id))
}

// resurrect brings a dead identity back under its old id, so the Skolem
// function stays a function.
func (d *DAG) resurrect(id NodeID) {
	if d.alive.At(int(id)) {
		return
	}
	d.setAlive(id, true)
	d.list(id)
}
