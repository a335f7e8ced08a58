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
// Mutations are kept as a single chronological log of the ops a commit
// record carries, and undone in reverse, so arbitrary interleavings of
// node/edge adds and removes restore exactly. What only undo reads rides in
// the ops' unexported fields.
type journal struct {
	ops []DeltaOp
}

func (d *DAG) logOp(op DeltaOp) {
	switch {
	case d.journal != nil:
		d.journal.ops = append(d.journal.ops, op)
	case !d.quiet:
		d.loseDelta() // a mutation no journal or record describes
	}
}

// keepDelta hands a committed journal's or a replayed record's ops to the
// next Seal, without copying them: nothing writes them after.
func (d *DAG) keepDelta(ops []DeltaOp) {
	if d.deltaLost || len(ops) == 0 {
		return
	}
	if d.deltaLen += len(ops); d.deltaLen > maxDelta {
		d.loseDelta()
		return
	}
	d.delta = append(d.delta, ops)
}

// loseDelta drops the ops kept for the next Seal: it will not know its ΔV.
func (d *DAG) loseDelta() {
	d.delta, d.deltaLen, d.deltaLost = nil, 0, true
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

// Commit closes the journal, keeping all mutations; its ops become part of
// the ΔV the next Seal carries.
func (d *DAG) Commit() {
	if d.journal == nil {
		panic("dag: Commit without Begin")
	}
	ops := d.journal.ops
	d.journal = nil
	d.keepDelta(ops)
}

// Mark returns a savepoint inside the open journal: the point RollbackTo and
// DeltaSince measure from. A transaction that stages several updates over
// one long-lived journal gives each update its own mark, so a rejected update
// unwinds alone while the journal keeps covering the whole group.
func (d *DAG) Mark() int {
	if d.journal == nil {
		panic("dag: Mark without Begin")
	}
	return len(d.journal.ops)
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
func (d *DAG) undo(ops []DeltaOp) {
	d.quiet = true
	defer func() { d.quiet = false }()
	for i := len(ops) - 1; i >= 0; i-- {
		op := ops[i]
		switch op.Kind {
		case DeltaEdgeAdd:
			d.RemoveEdge(op.Edge.Parent, op.Edge.Child)
		case DeltaEdgeDel:
			// Re-insert at the original positions so sibling order (which
			// the XML view semantics exposes) is restored exactly.
			d.insertRef(&d.children, op.Edge.Parent, int(op.childPos), op.Edge.Child)
			d.insertRef(&d.parents, op.Edge.Child, int(op.parentPos), op.Edge.Parent)
			d.edgeCount++
		case DeltaNodeAdd:
			// Incident edges were necessarily added after the node and
			// have already been removed above.
			if d.alive.At(int(op.Node)) {
				d.setAlive(op.Node, false)
				d.unlist(op.Node)
			}
			if op.fresh {
				d.free(op.Node)
			}
		case DeltaNodeDel:
			d.resurrect(op.Node)
		}
	}
}

// free takes back the id of an undone allocation, so that an unwound update
// leaves no trace in the id space: the next allocation gets the same id
// here and on a replica that never saw the unwound one, which is what lets
// the replica replay the log. Undo runs newest first, so the id is always
// the newest one. A sealed version never covers it (Seal refuses an open
// journal), so the arrays shrink in place — its values are truncated off the
// flat array — and the type's list drops it in place. The undone op's Attr
// aliased those values; nothing reads an undone op after its undo.
func (d *DAG) free(id NodeID) {
	typ, attr := d.Type(id), d.Attr(id)
	d.written.Write(int(id))
	d.bodyLen -= identityLen(typ, attr) + childListLen(d.children.row(id))
	var a [relational.KeyBufLen]byte
	delete(d.gen, string(appendGenKey(a[:0], typ, attr)))
	d.byType[typ] = slices.DeleteFunc(d.byType[typ], func(x NodeID) bool { return x == id })
	clear(attr) // no Version covers the values: drop what they hold
	d.types, d.vals, d.offs = d.types[:id], d.vals[:d.offs[id]], d.offs[:id+1]
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
