package dag

import (
	"encoding/binary"
	"fmt"
	"slices"

	"rxview/internal/relational"
	"rxview/internal/slab"
)

// Durability support: the chronological mutation delta of a committed
// transaction (the ΔV a write-ahead log record carries) and a full-state
// codec for checkpoints.
//
// Replay must reproduce node identities bit-for-bit, not just an isomorphic
// view: NodeIDs are the Skolem function gen_id and key the translator's
// source index and every node-indexed slice, and a dead identity must keep
// its id so a later resurrection reuses it. The delta is therefore the
// journal's exact chronological op sequence (node deletions included), and
// the checkpoint serializes the whole identity table — dead entries included
// — rather than the live node set.

// DeltaKind identifies one chronological DAG mutation.
type DeltaKind uint8

// Delta op kinds, in journal vocabulary.
const (
	DeltaNodeAdd DeltaKind = iota // node allocated or resurrected
	DeltaNodeDel                  // node deadened (incident edges removed separately)
	DeltaEdgeAdd
	DeltaEdgeDel
)

// DeltaOp is one mutation of a committed group, replayable in order: the
// journal records it as the mutation runs. NodeAdd carries the Skolem inputs
// (Type, Attr) so replay re-derives — and verifies — the recorded id; edge
// ops carry only the edge. The unexported fields are for the journal's undo
// alone: the encoding, replay and the digest never read them.
type DeltaOp struct {
	Kind DeltaKind
	Node NodeID // NodeAdd / NodeDel
	Edge Edge   // EdgeAdd / EdgeDel
	Type string // NodeAdd only
	Attr relational.Tuple

	fresh               bool  // NodeAdd: a new id, not a resurrection
	childPos, parentPos int32 // EdgeDel: the edge's original positions
}

func (op DeltaOp) String() string {
	switch op.Kind {
	case DeltaNodeAdd:
		return fmt.Sprintf("+node %d %s%s", op.Node, op.Type, op.Attr)
	case DeltaNodeDel:
		return fmt.Sprintf("-node %d", op.Node)
	case DeltaEdgeAdd:
		return "+edge " + op.Edge.String()
	default:
		return "-edge " + op.Edge.String()
	}
}

// DeltaSince returns the chronological mutation sequence recorded since the
// given journal savepoint — every op, in order, node deletions included: an
// exact replay script, since applying the ops in order on an identical
// pre-state reproduces identical node ids, sibling order, and liveness. The
// slice is a copy, so a later rollback does not change it (a NodeAdd's Attr
// shares the node's values, which only the rollback of that very op frees).
// Valid only inside a transaction.
func (d *DAG) DeltaSince(mark int) []DeltaOp {
	if d.journal == nil {
		panic("dag: DeltaSince without Begin")
	}
	ops := d.journal.ops[mark:]
	if len(ops) == 0 {
		return nil
	}
	return slices.Clone(ops)
}

// Replay applies a committed record's ops in order by ApplyDelta, outside any
// journal, and keeps them — the slice itself, which the caller must not
// modify after — as part of the ΔV the next Seal carries. A failed op leaves
// the DAG part way through the record, and the next Seal without a ΔV.
func (d *DAG) Replay(ops []DeltaOp) error {
	if d.journal != nil {
		panic("dag: Replay inside a transaction")
	}
	d.quiet = true
	defer func() { d.quiet = false }()
	for _, op := range ops {
		if err := d.ApplyDelta(op); err != nil {
			d.loseDelta()
			return err
		}
	}
	d.keepDelta(ops)
	return nil
}

// ApplyDelta replays one recorded mutation, verifying that the live DAG
// reacts exactly as the recording run did: a NodeAdd must allocate (or
// resurrect) the recorded id, an EdgeAdd must be new, removals must find
// their target. Any divergence means the log does not continue the state it
// is being replayed onto.
func (d *DAG) ApplyDelta(op DeltaOp) error {
	switch op.Kind {
	case DeltaNodeAdd:
		id, created := d.AddNode(op.Type, op.Attr)
		if !created {
			return fmt.Errorf("dag: replay %s: node already alive as %d", op, id)
		}
		if id != op.Node {
			return fmt.Errorf("dag: replay %s: allocated id %d", op, id)
		}
	case DeltaNodeDel:
		if !d.Alive(op.Node) {
			return fmt.Errorf("dag: replay %s: node not alive", op)
		}
		if len(d.Children(op.Node)) != 0 || len(d.Parents(op.Node)) != 0 {
			// The recording run removed incident edges (journaled before the
			// node deletion) first; leftovers mean the sequences diverged.
			return fmt.Errorf("dag: replay %s: node still has incident edges", op)
		}
		d.RemoveNode(op.Node)
	case DeltaEdgeAdd:
		if !d.AddEdge(op.Edge.Parent, op.Edge.Child) {
			return fmt.Errorf("dag: replay %s: edge not addable", op)
		}
	case DeltaEdgeDel:
		if !d.Alive(op.Edge.Parent) || !d.RemoveEdge(op.Edge.Parent, op.Edge.Child) {
			return fmt.Errorf("dag: replay %s: edge not present", op)
		}
	default:
		return fmt.Errorf("dag: replay: unknown delta kind %d", op.Kind)
	}
	return nil
}

// AppendDelta appends a binary encoding of one delta op to dst.
func AppendDelta(dst []byte, op DeltaOp) []byte {
	dst = append(dst, byte(op.Kind))
	switch op.Kind {
	case DeltaNodeAdd:
		dst = binary.AppendUvarint(dst, uint64(op.Node))
		dst = binary.AppendUvarint(dst, uint64(len(op.Type)))
		dst = append(dst, op.Type...)
		dst = relational.AppendTuple(dst, op.Attr)
	case DeltaNodeDel:
		dst = binary.AppendUvarint(dst, uint64(op.Node))
	default:
		dst = binary.AppendUvarint(dst, uint64(op.Edge.Parent))
		dst = binary.AppendUvarint(dst, uint64(op.Edge.Child))
	}
	return dst
}

// DecodeDelta decodes one delta op from the front of b.
func DecodeDelta(b []byte) (DeltaOp, []byte, error) {
	var op DeltaOp
	if len(b) == 0 {
		return op, nil, fmt.Errorf("dag: decode delta: empty input")
	}
	op.Kind = DeltaKind(b[0])
	b = b[1:]
	switch op.Kind {
	case DeltaNodeAdd:
		id, rest, err := decodeID(b)
		if err != nil {
			return op, nil, err
		}
		op.Node, b = id, rest
		n, w := binary.Uvarint(b)
		if w <= 0 || n > uint64(len(b)-w) {
			return op, nil, fmt.Errorf("dag: decode delta: bad type length")
		}
		b = b[w:]
		op.Type = string(b[:n])
		b = b[n:]
		attr, rest2, err := relational.DecodeTuple(b)
		if err != nil {
			return op, nil, fmt.Errorf("dag: decode delta attr: %w", err)
		}
		op.Attr, b = attr, rest2
	case DeltaNodeDel:
		id, rest, err := decodeID(b)
		if err != nil {
			return op, nil, err
		}
		op.Node, b = id, rest
	case DeltaEdgeAdd, DeltaEdgeDel:
		p, rest, err := decodeID(b)
		if err != nil {
			return op, nil, err
		}
		c, rest2, err := decodeID(rest)
		if err != nil {
			return op, nil, err
		}
		op.Edge, b = Edge{Parent: p, Child: c}, rest2
	default:
		return op, nil, fmt.Errorf("dag: decode delta: unknown kind %d", uint8(op.Kind))
	}
	return op, b, nil
}

func decodeID(b []byte) (NodeID, []byte, error) {
	u, w := binary.Uvarint(b)
	if w <= 0 || u > uint64(int32(^uint32(0)>>1)) {
		return InvalidNode, nil, fmt.Errorf("dag: decode delta: bad node id")
	}
	return NodeID(u), b[w:], nil
}

// AppendState appends a full serialization of the DAG to dst: the node
// count and the root, the entire identity table (dead entries included, so
// resurrection reuses the same ids after a reload) — each node's type,
// attribute tuple and alive flag — and the ordered child lists. DecodeState
// is the inverse. Must not be called inside a transaction.
//
// The identity table is written in ranges of relational.RangeLen ids, in id
// order, each by put(dst, r), which must append what AppendRange appends;
// nil means AppendRange itself. A checkpoint writer passes a put that reads a
// range it wrote before back from its file instead of encoding it again.
func (d *DAG) AppendState(dst []byte, put func(dst []byte, r int) []byte) []byte {
	if d.journal != nil {
		panic("dag: AppendState inside a transaction")
	}
	if put == nil {
		put = d.AppendRange
	}
	n := len(d.types)
	dst = binary.AppendUvarint(dst, uint64(n))
	dst = binary.AppendUvarint(dst, uint64(d.root))
	for r := range d.Ranges() {
		dst = put(dst, r)
	}
	for id := 0; id < n; id++ {
		row := d.children.row(NodeID(id))
		dst = binary.AppendUvarint(dst, uint64(len(row)))
		for _, c := range row {
			dst = binary.AppendUvarint(dst, uint64(c))
		}
	}
	return dst
}

// Ranges is the number of id ranges in the identity table.
func (d *DAG) Ranges() int { return relational.RangeCount(len(d.types)) }

// RangeClean reports whether no node of id range r was allocated, freed,
// killed or brought back since MarkClean.
func (d *DAG) RangeClean(r int) bool { return d.written.Clean(r) }

// AppendRange appends the identity-table entries of id range r to dst.
func (d *DAG) AppendRange(dst []byte, r int) []byte {
	for id := r * relational.RangeLen; id < min((r+1)*relational.RangeLen, len(d.types)); id++ {
		typ := d.Type(NodeID(id))
		dst = binary.AppendUvarint(dst, uint64(len(typ)))
		dst = append(dst, typ...)
		dst = relational.AppendTuple(dst, d.Attr(NodeID(id)))
		if d.alive.At(id) {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	return dst
}

// MarkClean marks every id range clean: a checkpoint holding the identity
// table as it is now has landed.
func (d *DAG) MarkClean() { d.written.MarkClean(len(d.types)) }

// StateLen is the number of bytes AppendState writes, kept up to date by
// every mutation, so that a caller can size one buffer for the state and
// whatever surrounds it without a pass over the nodes.
func (d *DAG) StateLen() int {
	vlen := relational.UvarintLen
	return vlen(uint64(len(d.types))) + vlen(uint64(d.root)) + d.bodyLen
}

// identityLen is the bytes AppendRange writes for one node: its type, its
// attribute tuple and its alive flag.
func identityLen(typ string, attr relational.Tuple) int {
	return relational.UvarintLen(uint64(len(typ))) + len(typ) + relational.TupleLen(attr) + 1
}

// countValues is the number of attribute values the n identity-table
// entries at the front of b hold, measured without decoding them, so that
// DecodeState fills a flat array of that size instead of growing one. It
// stops at the first entry it cannot measure; the decode reports why.
func countValues(b []byte, n int) int {
	total := 0
	for id := 0; id < n; id++ {
		tl, w := binary.Uvarint(b)
		if w <= 0 || tl >= uint64(len(b)-w) {
			break
		}
		k, rest, err := relational.SkipTuple(b[w+int(tl):])
		if err != nil || len(rest) == 0 {
			break
		}
		total, b = total+k, rest[1:] // past the alive flag
	}
	return total
}

// childListLen is the bytes AppendState writes for one child list.
func childListLen(row []NodeID) int {
	n := relational.UvarintLen(uint64(len(row)))
	for _, c := range row {
		n += relational.UvarintLen(uint64(c))
	}
	return n
}

// childDelta is what a child list of n entries adds to AppendState's length
// when it gains c, and takes off when, holding n+1, it loses c.
func childDelta(n int, c NodeID) int {
	vlen := relational.UvarintLen
	return vlen(uint64(n+1)) - vlen(uint64(n)) + vlen(uint64(c))
}

// DecodeState reconstructs a DAG serialized by AppendState. The result is
// id-identical to the original: same identity table, same liveness, same
// sibling order (parent lists are rebuilt from the child lists in id order).
//
// It allocates per structure, not per node: the attribute values go into
// the one flat array (their strings cut from a chunked arena), child and
// parent rows and registry keys are cut from chunked slabs (package slab has
// the ownership rules — a row's capacity is its length, so the first append
// to one moves it), and a type name is one string and one code however many
// nodes bear it; a state naming more than maxTypes types is refused. Nothing
// in the result aliases b. The DAG keeps no ΔV: its first Seal knows none.
func DecodeState(b []byte) (*DAG, error) {
	nU, w := binary.Uvarint(b)
	if w <= 0 || nU > uint64(int32(^uint32(0)>>1)) {
		return nil, fmt.Errorf("dag: decode state: bad node count")
	}
	b = b[w:]
	rootU, w := binary.Uvarint(b)
	if w <= 0 {
		return nil, fmt.Errorf("dag: decode state: bad root")
	}
	b = b[w:]
	if nU > uint64(len(b)) { // a node takes four bytes at the least
		return nil, fmt.Errorf("dag: decode state: %d nodes exceed input", nU)
	}
	n := int(nU)
	if rootU >= nU && n > 0 {
		return nil, fmt.Errorf("dag: decode state: root %d out of range", rootU)
	}
	d := &DAG{
		types:     make([]uint16, 0, n),
		codes:     make(map[string]uint16),
		offs:      make([]uint32, 1, n+1),
		gen:       make(map[string]NodeID, n),
		byType:    make(map[string][]NodeID),
		typeLive:  make(map[string]int),
		root:      NodeID(rootU),
		deltaLost: true, // a decoded state was not replayed: no Seal knows how it came
	}
	d.vals = make([]relational.Value, 0, countValues(b, n))
	d.children.reserve(n)
	d.parents.reserve(n)
	var (
		attrs relational.Slab
		keys  slab.Strings
		rows  slab.Of[NodeID]
		a     [relational.KeyBufLen]byte
		key   = a[:0]
	)
	for id := 0; id < n; id++ {
		tl, w := binary.Uvarint(b)
		if w <= 0 || tl > uint64(len(b)-w) {
			return nil, fmt.Errorf("dag: decode state: node %d: bad type", id)
		}
		b = b[w:]
		c, ok := d.codes[string(b[:tl])]
		if !ok {
			if len(d.names) == maxTypes {
				return nil, fmt.Errorf("dag: decode state: node %d: more than %d element types", id, maxTypes)
			}
			c = d.code(string(b[:tl]))
		}
		typ := d.names[c]
		b = b[tl:]
		vals, rest, err := attrs.DecodeAppend(d.vals, b)
		if err != nil {
			return nil, fmt.Errorf("dag: decode state: node %d attr: %w", id, err)
		}
		b = rest
		if len(b) == 0 {
			return nil, fmt.Errorf("dag: decode state: node %d: missing alive flag", id)
		}
		alive := b[0] != 0
		b = b[1:]

		d.types = append(d.types, c)
		d.vals = vals
		d.offs = append(d.offs, uint32(len(vals)))
		attr := d.Attr(NodeID(id))
		d.children.grow()
		d.parents.grow()
		d.alive.Push(alive)
		d.bodyLen += identityLen(typ, attr)
		key = appendGenKey(key[:0], typ, attr)
		d.gen[keys.Add(key)] = NodeID(id)
		if alive {
			d.list(NodeID(id))
		}
	}
	parents := make([]int32, n) // per node: how many parent entries it gets
	for id := 0; id < n; id++ {
		cl, w := binary.Uvarint(b)
		if w <= 0 {
			return nil, fmt.Errorf("dag: decode state: node %d: bad child count", id)
		}
		b = b[w:]
		if cl > uint64(len(b)) {
			return nil, fmt.Errorf("dag: decode state: node %d: child list exceeds input", id)
		}
		if cl == 0 {
			d.bodyLen++
			continue
		}
		row := rows.Make(int(cl))
		for j := range row {
			c, rest, err := decodeID(b)
			if err != nil {
				return nil, fmt.Errorf("dag: decode state: node %d child %d: %w", id, j, err)
			}
			if int(c) >= n {
				return nil, fmt.Errorf("dag: decode state: node %d child id %d out of range", id, c)
			}
			row[j] = c
			parents[c]++
			b = rest
		}
		d.children.setRow(NodeID(id), row)
		d.bodyLen += childListLen(row)
		d.edgeCount += len(row)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("dag: decode state: %d trailing bytes", len(b))
	}
	// Rebuild parent lists from the child lists. Parent-list order is not
	// semantically observable (sibling order lives in children), so the
	// deterministic id-order rebuild is sufficient. Each list is cut to its
	// final size first, so filling it appends in place.
	for id, k := range parents {
		if k > 0 {
			d.parents.setRow(NodeID(id), rows.Make(int(k))[:0])
		}
	}
	for id := 0; id < n; id++ {
		for _, c := range d.children.row(NodeID(id)) {
			d.parents.setRow(c, append(d.parents.row(c), NodeID(id)))
		}
	}
	return d, nil
}
