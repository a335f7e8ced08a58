// Package dag implements the DAG compression of XML views (§2.3 of the
// paper): every subtree ST(A, $A) shared by multiple nodes of the tree view
// is stored once. Nodes are identified by the Skolem function gen_id over
// (element type, semantic-attribute tuple); edges are grouped per
// (parent type, child type) pair, which is exactly the relational coding
// V_σ = { edge_A_B } of the view. The per-type node sets are the gen_A
// relations the paper maintains in the background.
//
// Per-node state is stored copy-on-write (internal/cow): DAG.Seal freezes the
// live view into an immutable Version in time proportional to what changed
// since the previous seal, which is what makes serving-layer snapshot
// publication O(Δ) instead of O(n).
package dag

import (
	"fmt"
	"math"
	"slices"

	"rxview/internal/cow"
	"rxview/internal/relational"
)

// NodeID identifies a node of the DAG. IDs are dense, so slices indexed by
// NodeID serve as node-keyed maps. An id is never reused once its allocation
// has committed: a dead identity keeps its id, and only an allocation undone
// by a journal rollback gives its id back.
type NodeID int32

// InvalidNode is returned by lookups that fail.
const InvalidNode NodeID = -1

// Edge is a parent→child edge; the tuple (gen_id($A), gen_id($B)) of an
// edge_A_B relation.
type Edge struct {
	Parent, Child NodeID
}

func (e Edge) String() string { return fmt.Sprintf("(%d→%d)", e.Parent, e.Child) }

// Reader is the read surface shared by the live DAG and its sealed
// Versions: everything query evaluation, XML serialization and statistics
// need, and nothing that mutates. Functions that only read a view should
// take a Reader so they serve both the live view and frozen epochs.
type Reader interface {
	// Root returns the root node id.
	Root() NodeID
	// Cap returns the id upper bound: every live NodeID is < Cap.
	Cap() int
	// Alive reports whether the id refers to a live node.
	Alive(id NodeID) bool
	// Type returns the element type of the node.
	Type(id NodeID) string
	// Attr returns the semantic attribute tuple $A of the node.
	Attr(id NodeID) relational.Tuple
	// Children returns the ordered child list; callers must not mutate it.
	Children(id NodeID) []NodeID
	// Parents returns the parent list; callers must not mutate it.
	Parents(id NodeID) []NodeID
	// IDsOfType returns the raw gen_A list of an element type: a superset
	// of the type's live nodes that may also hold dead ids and duplicates,
	// in no particular order. It is the entry point for evaluation that
	// starts from a type instead of sweeping the view; callers filter by
	// Alive and must not mutate the slice. (NodesOfType is the sorted,
	// filtered rendering of the same list.)
	IDsOfType(typ string) []NodeID
	// Nodes returns all live node ids in id order.
	Nodes() []NodeID
	// NumNodes returns the number of live nodes (n in the paper's analysis).
	NumNodes() int
	// NumEdges returns the number of live edges (|V| in the paper's
	// analysis: the size of the relational views).
	NumEdges() int
}

var (
	_ Reader = (*DAG)(nil)
	_ Reader = (*Version)(nil)
)

// DAG is the compressed XML view.
//
// The identity table — each node's element type and attribute tuple, which
// never change once the id is allocated — is kept compact: a type is a
// uint16 code into the append-only name table, and the attribute tuples are
// one flat value array cut by per-node offsets. All four arrays only ever
// append (an undone allocation truncates what no Version covers), so a
// sealed Version shares their prefixes.
type DAG struct {
	types    []uint16           // node -> element type, a code into names (append-only)
	names    []string           // type code -> element type name (append-only)
	codes    map[string]uint16  // element type name -> its code
	vals     []relational.Value // the attribute values of every node, in id order (append-only)
	offs     []uint32           // node -> start of its values in vals; offs[Cap()] is len(vals)
	children refStore           // ordered adjacency, copy-on-write
	parents  refStore
	alive    cow.Array[bool]
	root     NodeID

	gen       map[string]NodeID   // Skolem registry: (type, attr) -> id
	byType    map[string][]NodeID // gen_A sets (may contain dead ids; filtered on read)
	typeLive  map[string]int      // live nodes per type: the yardstick byType lists are compacted against
	edgeCount int
	liveCount int

	// What a checkpoint needs without a pass over the nodes: the bytes
	// AppendState writes past its two leading varints, and the id ranges
	// of the identity table a write touched since the last checkpoint that
	// landed (MarkClean).
	bodyLen int
	written relational.CleanRanges

	journal *journal

	// ΔV since the last Seal, for the next Version to carry: the ops of
	// every journal committed and every record replayed since, in order.
	// deltaLost says they are not all here — a mutation ran outside a
	// journal (a build, a failed replay), the state was decoded rather than
	// replayed, or more ops came than maxDelta keeps — and it holds until
	// the next Seal. quiet marks the mutators that log nothing and lose
	// nothing: undo, whose ops were never committed, and Replay, which keeps
	// its record's ops whole.
	delta     [][]DeltaOp
	deltaLen  int
	deltaLost bool
	quiet     bool
	sealed    uint64 // the id of the last Version sealed; 0 before the first
}

// maxTypes is the number of element types the uint16 codes can name.
const maxTypes = math.MaxUint16

// maxDelta bounds the ops a DAG keeps for its next Seal: a DAG that is never
// sealed, or a commit larger than this, loses its ΔV instead of holding it.
const maxDelta = 1 << 12

// New creates an empty DAG and its root node of the given type. The root's
// semantic attribute is the empty tuple (the paper's $r is fixed).
func New(rootType string) *DAG {
	d := &DAG{
		codes:    make(map[string]uint16),
		offs:     []uint32{0},
		gen:      make(map[string]NodeID),
		byType:   make(map[string][]NodeID),
		typeLive: make(map[string]int),
		root:     InvalidNode,
	}
	d.root, _ = d.AddNode(rootType, nil)
	return d
}

// code returns the code of an element type name, giving a new name the
// next one. Element types come from a DTD, so running out is a programming
// error.
func (d *DAG) code(typ string) uint16 {
	c, ok := d.codes[typ]
	if !ok {
		if len(d.names) == maxTypes {
			panic(fmt.Sprintf("dag: more than %d element types", maxTypes))
		}
		c = uint16(len(d.names))
		d.names = append(d.names, typ)
		d.codes[typ] = c
	}
	return c
}

// attrOf cuts node id's attribute tuple out of a flat value array, capped so
// that an append to it cannot write into the next node's values.
func attrOf(vals []relational.Value, offs []uint32, id NodeID) relational.Tuple {
	lo, hi := offs[id], offs[id+1]
	return vals[lo:hi:hi]
}

// Root returns the root node id.
func (d *DAG) Root() NodeID { return d.root }

// NumNodes returns the number of live nodes (n in the paper's analysis).
func (d *DAG) NumNodes() int { return d.liveCount }

// NumEdges returns the number of live edges (|V| in the paper's analysis:
// the size of the relational views).
func (d *DAG) NumEdges() int { return d.edgeCount }

// Cap returns the id upper bound: every live NodeID is < Cap. Use it to size
// node-indexed slices.
func (d *DAG) Cap() int { return len(d.types) }

// Alive reports whether the id refers to a live node.
func (d *DAG) Alive(id NodeID) bool {
	return id >= 0 && int(id) < d.alive.Len() && d.alive.At(int(id))
}

// Type returns the element type of the node.
func (d *DAG) Type(id NodeID) string { return d.names[d.types[id]] }

// Attr returns the semantic attribute tuple $A of the node. Callers must
// not mutate it.
func (d *DAG) Attr(id NodeID) relational.Tuple { return attrOf(d.vals, d.offs, id) }

// Children returns the ordered child list of the node. Callers must not
// mutate the returned slice.
func (d *DAG) Children(id NodeID) []NodeID { return d.children.row(id) }

// Parents returns the parent list of the node. Callers must not mutate it.
func (d *DAG) Parents(id NodeID) []NodeID { return d.parents.row(id) }

// appendGenKey appends the Skolem registry's key for (typ, attr) to dst: the
// type, a zero byte, and the attribute tuple's injective encoding. Lookups
// build it in a buffer on their stack; only a new identity pays for a string.
func appendGenKey(dst []byte, typ string, attr relational.Tuple) []byte {
	dst = append(dst, typ...)
	dst = append(dst, 0)
	return relational.AppendKey(dst, attr, nil)
}

// Lookup returns the node with the given type and attribute, if present and
// alive. This is gen_id as a partial lookup.
func (d *DAG) Lookup(typ string, attr relational.Tuple) (NodeID, bool) {
	var a [relational.KeyBufLen]byte
	id, ok := d.gen[string(appendGenKey(a[:0], typ, attr))]
	if !ok || !d.alive.At(int(id)) {
		return InvalidNode, false
	}
	return id, true
}

// AddNode returns the node for (typ, attr), creating it if needed; created
// reports whether a new node was allocated. This is the Skolem function
// gen_id of §2.3: the id is unique per (type, attribute value).
func (d *DAG) AddNode(typ string, attr relational.Tuple) (id NodeID, created bool) {
	var a [relational.KeyBufLen]byte
	k := appendGenKey(a[:0], typ, attr)
	if id, ok := d.gen[string(k)]; ok {
		if d.alive.At(int(id)) {
			return id, false
		}
		// Resurrect a previously deleted identity, reusing its id so the
		// Skolem function stays a function.
		d.resurrect(id)
		d.logOp(DeltaOp{Kind: DeltaNodeAdd, Node: id, Type: d.Type(id), Attr: d.Attr(id)})
		return id, true
	}
	id = NodeID(len(d.types))
	c := d.code(typ)
	d.types = append(d.types, c)
	d.vals = append(d.vals, attr...)
	d.offs = append(d.offs, uint32(len(d.vals)))
	d.children.grow()
	d.parents.grow()
	d.alive.Push(true)
	d.written.Write(int(id))
	d.bodyLen += identityLen(typ, attr) + 1 // + the empty child list's count
	d.gen[string(k)] = id
	d.list(id)
	d.logOp(DeltaOp{Kind: DeltaNodeAdd, Node: id, Type: d.names[c], Attr: d.Attr(id), fresh: true})
	return id, true
}

// byTypeSlack is the constant in the byType bound len ≤ 2·live + slack: it
// keeps types with a handful of nodes from compacting on every death.
const byTypeSlack = 16

// list counts a node that just became alive (the caller has set the flag)
// and appends it to its type's gen_A list. A resurrected id may still sit in
// the list from its previous life; readers tolerate the duplicate and the
// next compaction drops it.
func (d *DAG) list(id NodeID) {
	typ := d.Type(id)
	d.byType[typ] = append(d.byType[typ], id)
	d.typeLive[typ]++
	d.liveCount++
}

// unlist counts a node that just died (the caller has cleared the flag). Its
// id stays in the type's list until the list outgrows twice the type's live
// count; then the list is rebuilt from its live ids. Only deaths can break
// that bound (a birth adds one to both sides), so this is the one place that
// compacts, and between two compactions of a list lie at least half its
// length in deaths — O(log n) amortized per death. The rebuild is a fresh
// array, never an in-place rewrite: sealed versions keep reading the old one.
func (d *DAG) unlist(id NodeID) {
	typ := d.Type(id)
	d.typeLive[typ]--
	d.liveCount--
	if raw := d.byType[typ]; len(raw) > 2*d.typeLive[typ]+byTypeSlack {
		d.byType[typ] = liveSorted(raw, d.alive.At)
	}
}

// liveSorted returns the live ids of a raw gen_A list, in id order and
// without duplicates, in a fresh array.
func liveSorted(raw []NodeID, alive func(int) bool) []NodeID {
	out := make([]NodeID, 0, len(raw))
	for _, id := range raw {
		if alive(int(id)) {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// HasEdge reports whether the edge (u,v) exists.
func (d *DAG) HasEdge(u, v NodeID) bool {
	for _, c := range d.children.row(u) {
		if c == v {
			return true
		}
	}
	return false
}

// AddEdge inserts the edge (u,v) at the end of u's child list (the paper's
// insertions add the new subtree as the rightmost child). It reports whether
// the edge was new; edge relations have set semantics, so duplicates are
// ignored.
func (d *DAG) AddEdge(u, v NodeID) bool {
	if !d.Alive(u) || !d.Alive(v) {
		return false
	}
	if d.HasEdge(u, v) {
		return false
	}
	d.bodyLen += childDelta(len(d.children.row(u)), v)
	d.children.setRow(u, append(d.children.ownRow(u, 1), v))
	d.parents.setRow(v, append(d.parents.ownRow(v, 1), u))
	d.edgeCount++
	d.logOp(DeltaOp{Kind: DeltaEdgeAdd, Edge: Edge{u, v}})
	return true
}

// RemoveEdge deletes the edge (u,v); it reports whether the edge existed.
// The child node is not removed even if orphaned: garbage collection of
// unreachable nodes is the background maintenance step of §2.3.
func (d *DAG) RemoveEdge(u, v NodeID) bool {
	cpos := d.removeRef(&d.children, u, v)
	if cpos < 0 {
		return false
	}
	ppos := d.removeRef(&d.parents, v, u)
	d.edgeCount--
	d.logOp(DeltaOp{Kind: DeltaEdgeDel, Edge: Edge{u, v}, childPos: int32(cpos), parentPos: int32(ppos)})
	return true
}

// removeRef deletes x from row i of a store, compacting in place on a
// copy-on-write-owned row; it returns x's original position, or -1.
func (d *DAG) removeRef(s *refStore, i, x NodeID) int {
	pos := -1
	for j, v := range s.row(i) {
		if v == x {
			pos = j
			break
		}
	}
	if pos < 0 {
		return -1
	}
	r := s.ownRow(i, 0)
	copy(r[pos:], r[pos+1:])
	s.setRow(i, r[:len(r)-1])
	if s == &d.children {
		d.bodyLen -= childDelta(len(r)-1, x)
	}
	return pos
}

// insertRef re-inserts x into row i at pos (clamped), for journal undo.
func (d *DAG) insertRef(s *refStore, i NodeID, pos int, x NodeID) {
	r := s.ownRow(i, 1)
	if s == &d.children {
		d.bodyLen += childDelta(len(r), x)
	}
	if pos < 0 || pos > len(r) {
		pos = len(r)
	}
	r = append(r, 0)
	copy(r[pos+1:], r[pos:])
	r[pos] = x
	s.setRow(i, r)
}

// RemoveNode deletes a node and all its incident edges. Used by garbage
// collection when a node becomes unreachable from the root.
func (d *DAG) RemoveNode(id NodeID) {
	if !d.Alive(id) {
		return
	}
	for _, c := range append([]NodeID(nil), d.children.row(id)...) {
		d.RemoveEdge(id, c)
	}
	for _, p := range append([]NodeID(nil), d.parents.row(id)...) {
		d.RemoveEdge(p, id)
	}
	d.setAlive(id, false)
	d.unlist(id)
	d.logOp(DeltaOp{Kind: DeltaNodeDel, Node: id})
}

// Collect is the garbage collection of Algorithm ∆(M,L)delete (Fig.8, its
// keep(d) := false): given the already-removed parent-child edges ep = Ep(r),
// it removes every node they left unreachable and returns ∆'V — the cascade
// of edges removed because their parent node died — plus the collected
// nodes themselves.
//
// RemoveEdge keeps the parent lists clean, so a non-root node is unreachable
// exactly when its parent list is empty; examining the children of every
// removed edge breadth-first therefore collects the same set Fig.8's backward
// walk over desc(r[[p]]) does, without reading M. The order may differ from
// Fig.8's; a replayed commit follows the journal of the mutators called here,
// so it reproduces whatever order ran.
func (d *DAG) Collect(ep []Edge) (cascade []Edge, removed []NodeID) {
	queue := make([]NodeID, len(ep))
	for i, e := range ep {
		queue[i] = e.Child
	}
	for i := 0; i < len(queue); i++ {
		n := queue[i]
		if n == d.root || !d.Alive(n) || len(d.Parents(n)) > 0 {
			continue
		}
		for _, c := range append([]NodeID(nil), d.Children(n)...) {
			d.RemoveEdge(n, c)
			cascade = append(cascade, Edge{Parent: n, Child: c})
			queue = append(queue, c)
		}
		d.RemoveNode(n)
		removed = append(removed, n)
	}
	return cascade, removed
}

// setAlive sets a node's alive flag, a byte of its identity range.
func (d *DAG) setAlive(id NodeID, alive bool) {
	d.alive.Set(int(id), alive)
	d.written.Write(int(id))
}

// NodesOfType returns the live nodes of an element type in id order: the
// gen_A relation of §2.3.
func (d *DAG) NodesOfType(typ string) []NodeID {
	return liveSorted(d.byType[typ], d.alive.At)
}

// IDsOfType returns the raw gen_A list of the type; see Reader.
func (d *DAG) IDsOfType(typ string) []NodeID { return d.byType[typ] }

// Nodes returns all live node ids in id order.
func (d *DAG) Nodes() []NodeID {
	out := make([]NodeID, 0, d.liveCount)
	for id := range d.types {
		if d.alive.At(id) {
			out = append(out, NodeID(id))
		}
	}
	return out
}

// EdgeRelationName returns the paper's edge_A_B relation name for an edge.
func (d *DAG) EdgeRelationName(e Edge) string {
	return "edge_" + d.Type(e.Parent) + "_" + d.Type(e.Child)
}
