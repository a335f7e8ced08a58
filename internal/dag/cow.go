package dag

import (
	"sync/atomic"

	"rxview/internal/cow"
	"rxview/internal/relational"
)

// refStore is the DAG's adjacency (children or parents), indexed by NodeID:
// a cow.Array of rows — see that package for the chunk sharing and why it is
// safe — plus the one thing that is this store's own. A row is a slice, so a
// sealed chunk shares its backing array: ownRow copies a row before the
// first mutation after a seal, and rEpoch records which epoch allocated each
// row's backing, so appends and compactions within an epoch stay in place.
type refStore struct {
	rows   cow.Array[[]NodeID]
	rEpoch []uint64 // per row: epoch its backing array was allocated at
	epoch  uint64   // bumped by seal; a backing older than this is shared
}

func (s *refStore) row(i NodeID) []NodeID { return s.rows.At(int(i)) }

// ownRow returns row i with a backing array owned by the current epoch,
// copying it (with extraCap growth room) if it is shared with a sealed
// version. The caller may mutate the returned slice in place and must store
// the final header with setRow.
func (s *refStore) ownRow(i NodeID, extraCap int) []NodeID {
	r := s.rows.At(int(i))
	if s.rEpoch[i] != s.epoch {
		nr := make([]NodeID, len(r), len(r)+extraCap)
		copy(nr, r)
		r = nr
		s.setRow(i, r)
	}
	return r
}

// setRow stores a row header. The row's backing must be owned by the current
// epoch (came from ownRow, or is freshly allocated by the caller).
func (s *refStore) setRow(i NodeID, r []NodeID) {
	s.rows.Set(int(i), r)
	s.rEpoch[i] = s.epoch
}

// reserve sizes an empty store for n rows, for a caller that is about to grow
// it to exactly that.
func (s *refStore) reserve(n int) { s.rEpoch = make([]uint64, 0, n) }

// grow appends an empty row.
func (s *refStore) grow() {
	s.rows.Push(nil)
	s.rEpoch = append(s.rEpoch, s.epoch)
}

// truncate drops the rows from n on (see cow.Array.Truncate).
func (s *refStore) truncate(n NodeID) {
	s.rows.Truncate(int(n))
	s.rEpoch = s.rEpoch[:n]
}

func (s *refStore) seal() cow.Sealed[[]NodeID] {
	s.epoch++
	return s.rows.Seal()
}

// Version is an immutable copy-on-write snapshot of a DAG, sealed by
// DAG.Seal. It shares every untouched block, chunk, row, and append-only
// prefix with the live DAG and with neighboring versions; only state the
// writer dirtied between seals is copied (by the writer, when it dirtied
// it). All methods are safe for concurrent use by any number of
// goroutines.
//
// A Version answers the whole read surface (Reader); mutation and the
// Skolem registry (AddNode/Lookup) are intentionally absent — versions are
// the epoch unit of the serving layer, not working state. The registry's
// absence is also why a read over a Version finds an anchored path's seeds
// by scanning IDsOfType, where the live view's writes look them up in gen
// (atg.Compiled.TextSeeds takes a *DAG): the map is the writer's, and
// sharing it would take a lock or a persistent registry.
type Version struct {
	types     []uint16
	names     []string
	vals      []relational.Value
	offs      []uint32
	children  cow.Sealed[[]NodeID]
	parents   cow.Sealed[[]NodeID]
	alive     cow.Sealed[bool]
	byType    map[string][]NodeID
	root      NodeID
	edgeCount int
	liveCount int

	// id identifies the version and from its predecessor, the version its
	// DAG sealed before it (0: none); delta is the ΔV from that one to this
	// one, when deltaKnown. See DeltaFrom.
	id, from   uint64
	delta      [][]DeltaOp
	deltaKnown bool
}

// sealIDs numbers the Versions of every DAG in the process, so that a
// version's predecessor is named by a number no other version holds.
var sealIDs atomic.Uint64

// Seal freezes the current DAG state into an immutable Version in O(Δ):
// three top-level block lists (n/4096 words each) and the byType map
// header are copied; every block, chunk and row that did not change since
// the previous seal is shared, not copied. Like Clone, Seal panics inside
// a transaction: a snapshot of speculative, possibly rolled-back state is
// never meaningful.
func (d *DAG) Seal() *Version {
	if d.journal != nil {
		panic("dag: Seal inside a transaction")
	}
	byType := make(map[string][]NodeID, len(d.byType))
	for typ, ids := range d.byType {
		// Cap at the current length: the live list only ever appends (in
		// place, beyond this cap) or is wholesale replaced by compaction
		// (DAG.unlist), so the shared prefix is immutable.
		byType[typ] = ids[:len(ids):len(ids)]
	}
	n := len(d.types)
	v := &Version{
		types:      d.types[:n:n],
		names:      d.names[:len(d.names):len(d.names)],
		vals:       d.vals[:d.offs[n]:d.offs[n]],
		offs:       d.offs[: n+1 : n+1],
		children:   d.children.seal(),
		parents:    d.parents.seal(),
		alive:      d.alive.Seal(),
		byType:     byType,
		root:       d.root,
		edgeCount:  d.edgeCount,
		liveCount:  d.liveCount,
		id:         sealIDs.Add(1),
		from:       d.sealed,
		delta:      d.delta,
		deltaKnown: !d.deltaLost,
	}
	d.sealed = v.id
	d.delta, d.deltaLen, d.deltaLost = nil, 0, false
	return v
}

// DeltaFrom returns the ΔV that leads from prev's state to v's: the ops of
// the journals committed and the records replayed in between, in order. ok
// is false when v cannot tell — prev is not the version its DAG sealed just
// before v (another DAG's, or another seal came between), or the DAG kept no
// complete ΔV since (see DAG.delta).
func (v *Version) DeltaFrom(prev *Version) (ops [][]DeltaOp, ok bool) {
	if prev == nil || v.from != prev.id || !v.deltaKnown {
		return nil, false
	}
	return v.delta, true
}

// Root returns the root node id.
func (v *Version) Root() NodeID { return v.root }

// NumNodes returns the number of live nodes at the sealed epoch.
func (v *Version) NumNodes() int { return v.liveCount }

// NumEdges returns the number of live edges at the sealed epoch.
func (v *Version) NumEdges() int { return v.edgeCount }

// Cap returns the id upper bound at the sealed epoch.
func (v *Version) Cap() int { return len(v.types) }

// Alive reports whether the id refers to a node live at the sealed epoch.
func (v *Version) Alive(id NodeID) bool {
	return id >= 0 && int(id) < v.alive.Len() && v.alive.At(int(id))
}

// Type returns the element type of the node.
func (v *Version) Type(id NodeID) string { return v.names[v.types[id]] }

// Attr returns the semantic attribute tuple $A of the node. Callers must
// not mutate it.
func (v *Version) Attr(id NodeID) relational.Tuple { return attrOf(v.vals, v.offs, id) }

// Children returns the ordered child list at the sealed epoch. Callers must
// not mutate the returned slice.
func (v *Version) Children(id NodeID) []NodeID { return v.children.At(int(id)) }

// Parents returns the parent list at the sealed epoch. Callers must not
// mutate the returned slice.
func (v *Version) Parents(id NodeID) []NodeID { return v.parents.At(int(id)) }

// IDsOfType returns the raw gen_A list of the type as of the sealed epoch;
// see Reader.
func (v *Version) IDsOfType(typ string) []NodeID { return v.byType[typ] }

// Nodes returns all live node ids in id order.
func (v *Version) Nodes() []NodeID {
	out := make([]NodeID, 0, v.liveCount)
	for id := 0; id < len(v.types); id++ {
		if v.alive.At(id) {
			out = append(out, NodeID(id))
		}
	}
	return out
}
