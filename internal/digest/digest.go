// Package digest is the state digest: a multiset hash of everything a view's
// state means — its live nodes, its edges, its base rows — that a commit can
// move forward in O(|Δ|) from the record it is about to log, and that a
// reader of that record, or of a checkpoint, can hold its own state to.
//
//	Sum = basis + Σ n(type, attr)        over live nodes
//	            + Σ e(n(parent), n(child)) over edges
//	            + Σ r(relation, tuple)     over base rows
//
// in two independent 64-bit lanes, each sum wrapping. An item is hashed with
// FNV-1a (lane A as hash/fnv computes it, lane B over the same bytes behind
// one 0xFF byte) and then put through a 64-bit finaliser: FNV's last step is
// linear in the last byte, and without the finaliser two items that swapped
// their last bytes would often leave the sum where it was. Nothing here
// depends on the process: no seed, no map order, no pointer.
//
// Items are keyed by Skolem key — (type, attribute tuple) — and never by
// dag.NodeID, so two states that publish the same view under different id
// assignments have the same digest. What the digest does not cover: dead
// identities and the order of siblings.
//
// There are three entry points: Of is the full pass, Sum.Step the
// incremental one, Compare the verdict. The primary's commit, boot replay, a
// follower's apply and every checkpoint all go through them, so "the same
// digest" always means the same function.
package digest

import (
	"encoding/binary"
	"fmt"

	"rxview/internal/dag"
	"rxview/internal/relational"
)

// Sum is a state digest. The zero Sum means only "this in-memory system keeps
// no digest"; it is never a stamp that was written, and Of never returns it
// (the sum starts from a non-zero basis). A record or checkpoint that carries
// it is held to it like to any other stamp, and fails.
type Sum struct{ A, B uint64 }

// Size is the length of a Sum's wire form: lane A then lane B, big-endian.
const Size = 16

// IsZero reports whether s is the "no digest" value.
func (s Sum) IsZero() bool { return s == Sum{} }

// String renders the digest as 32 hex digits, or "none" for the zero Sum —
// two replicas are in the same state exactly when these strings are equal.
func (s Sum) String() string {
	if s.IsZero() {
		return "none"
	}
	return fmt.Sprintf("%016x%016x", s.A, s.B)
}

// Append appends the wire form of s to dst.
func (s Sum) Append(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, s.A)
	return binary.BigEndian.AppendUint64(dst, s.B)
}

// Decode reads the wire form from the first Size bytes of b.
func Decode(b []byte) Sum {
	return Sum{A: binary.BigEndian.Uint64(b), B: binary.BigEndian.Uint64(b[8:])}
}

// MismatchError reports two digests that should have been equal.
type MismatchError struct {
	Want, Got Sum
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("state digest %s, want %s", e.Got, e.Want)
}

// Compare holds got — the digest of the state a reader has built — to want,
// the digest its source stamped.
func Compare(want, got Sum) error {
	if want == got {
		return nil
	}
	return &MismatchError{Want: want, Got: got}
}

// basis is what an empty state sums to, so that no state's digest is the
// zero Sum by construction.
var basis = Sum{A: 0x72787669657764a1, B: 0x64696765737432b7}

// Of computes the digest of a whole state in one pass. The per-node hashes
// live in a scratch slice for the duration of the call — an edge's item is
// made from its endpoints' — and nothing is kept afterwards.
func Of(d dag.Reader, db *relational.Database) Sum {
	sum := basis
	var buf []byte
	nodes := make([]Sum, d.Cap())
	for id := range nodes {
		if v := dag.NodeID(id); d.Alive(v) {
			nodes[id], buf = item(buf, tagNode, d.Type(v), d.Attr(v))
			sum = sum.plus(nodes[id])
		}
	}
	for id := range nodes {
		if u := dag.NodeID(id); d.Alive(u) {
			for _, c := range d.Children(u) {
				sum = sum.plus(edgeItem(nodes[u], nodes[c]))
			}
		}
	}
	for _, name := range db.Schema.TableNames() {
		db.Rel(name).Scan(func(t relational.Tuple) bool {
			var it Sum
			it, buf = item(buf, tagRow, name, t)
			sum = sum.plus(it)
			return true
		})
	}
	return sum
}

// Step moves the digest across one commit record: delta and dr are the
// record's DAG delta and ΔR, and d is the DAG after the delta was applied to
// it (identities are append-only, so it still names the nodes the delta
// removed). It is the same function where the record is built and where it is
// replayed; s must be the digest of the state the record was applied to.
func (s Sum) Step(d dag.Reader, delta []dag.DeltaOp, dr []relational.Mutation) Sum {
	var scratch [128]byte
	buf := scratch[:0]
	node := func(id dag.NodeID) (it Sum) {
		it, buf = item(buf, tagNode, d.Type(id), d.Attr(id))
		return it
	}
	for _, op := range delta {
		switch op.Kind {
		case dag.DeltaNodeAdd:
			s = s.plus(node(op.Node))
		case dag.DeltaNodeDel:
			s = s.minus(node(op.Node))
		case dag.DeltaEdgeAdd:
			s = s.plus(edgeItem(node(op.Edge.Parent), node(op.Edge.Child)))
		case dag.DeltaEdgeDel:
			s = s.minus(edgeItem(node(op.Edge.Parent), node(op.Edge.Child)))
		}
	}
	for _, m := range dr {
		var it Sum
		it, buf = item(buf, tagRow, m.Table, m.Tuple)
		if m.Insert {
			s = s.plus(it)
		} else {
			s = s.minus(it)
		}
	}
	return s
}

func (s Sum) plus(it Sum) Sum  { return Sum{s.A + it.A, s.B + it.B} }
func (s Sum) minus(it Sum) Sum { return Sum{s.A - it.A, s.B - it.B} }

// Item tags: n(type, attr) and r(relation, tuple) differ by tag, because a
// node type and a relation may share a name.
const (
	tagNode = 'N'
	tagRow  = 'R'
)

// item hashes tag, name, a zero byte and the tuple's injective encoding
// (relational.AppendTuple — the bytes the log and the checkpoint store). buf
// is scratch, returned for reuse.
func item(buf []byte, tag byte, name string, t relational.Tuple) (Sum, []byte) {
	buf = append(buf[:0], tag)
	buf = append(buf, name...)
	buf = append(buf, 0)
	buf = relational.AppendTuple(buf, t)
	a, b := fnv1a(buf)
	return Sum{fmix(a), fmix(b)}, buf
}

// edgeItem is e(n(parent), n(child)): ordered, so an edge is not its reverse.
func edgeItem(parent, child Sum) Sum {
	const k = 0x9e3779b97f4a7c15
	return Sum{fmix(parent.A*k + child.A), fmix(parent.B*k + child.B)}
}

// FNV-1a, 64 bit: the constants of hash/fnv.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
	// laneB is the FNV-1a state after the single byte 0xFF.
	laneB = (fnvOffset ^ 0xff) * fnvPrime & (1<<64 - 1)
)

// fnv1a returns fnv.New64a over p (lane A) and over 0xFF‖p (lane B), in one
// loop: the two multiply chains are independent, so the second is nearly free.
func fnv1a(p []byte) (a, b uint64) {
	a, b = fnvOffset, laneB
	for _, c := range p {
		a = (a ^ uint64(c)) * fnvPrime
		b = (b ^ uint64(c)) * fnvPrime
	}
	return a, b
}

// fmix is the 64-bit finaliser of MurmurHash3: a bijection that spreads every
// input bit over the word.
func fmix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
