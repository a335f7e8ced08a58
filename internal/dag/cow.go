package dag

import "rxview/internal/relational"

// Copy-on-write storage for the DAG's mutable per-node state.
//
// The serving layer publishes one immutable epoch per applied write (PR 3);
// cloning the whole DAG per epoch made publication O(n) regardless of update
// size, undoing the paper's everywhere-incremental design at the last step.
// The stores below make sealing an epoch O(Δ): per-node state lives in
// fixed-size chunks (256 rows), chunk pointers live in fixed-size spine
// blocks (256 chunks, so one block covers 65536 rows), and the writer
// copies a block, chunk, or row only the first time it touches it after a
// seal. Seal itself copies just the top-level block list — n/65536
// pointers, one or two words for any view under 131k nodes — so
// publication cost tracks the write that preceded it, not the view size.
//
// Safety argument for the sharing:
//   - sealed versions hold their own top-level block list, so the writer
//     may swap block pointers freely;
//   - a block or chunk reachable from any sealed version is never written:
//     the writer replaces it (ownChunk → ownBlock) before the first
//     post-seal write, except for slots at indexes ≥ the sealed length,
//     which no sealed reader accesses (node ids are never reused and
//     lengths only grow);
//   - a row slice reachable from a sealed chunk is never written: ownRow
//     copies it before the first post-seal mutation (rEpoch tracks backing
//     ownership, so in-epoch in-place appends/compactions stay cheap).

const (
	chunkBits = 8
	chunkSize = 1 << chunkBits
	chunkMask = chunkSize - 1
	blockBits = 8 // chunks per spine block
	blockSize = 1 << blockBits
	blockMask = blockSize - 1
	rowBlock  = chunkBits + blockBits // row index -> block index shift
)

// refChunk holds one chunk of adjacency rows; refBlock one spine block of
// chunk pointers.
type (
	refChunk [chunkSize][]NodeID
	refBlock [blockSize]*refChunk
)

// refStore is a chunked copy-on-write array of adjacency rows (children or
// parents), indexed by NodeID.
type refStore struct {
	blocks []*refBlock
	bEpoch []uint64 // per block: epoch its pointer was installed at
	cEpoch []uint64 // per chunk: epoch its pointer was installed at
	rEpoch []uint64 // per row: epoch its backing array was allocated at
	epoch  uint64   // bumped by seal; anything older is shared
	n      int
}

func (s *refStore) row(i NodeID) []NodeID {
	return s.blocks[i>>rowBlock][(i>>chunkBits)&blockMask][i&chunkMask]
}

// ownBlock makes spine block bi writable in the current epoch, copying it
// if a sealed version may still reference it.
//
// xviewlint:cow-primitive
func (s *refStore) ownBlock(bi int) *refBlock {
	if s.bEpoch[bi] != s.epoch {
		cp := *s.blocks[bi]
		s.blocks[bi] = &cp
		s.bEpoch[bi] = s.epoch
	}
	return s.blocks[bi]
}

// ownChunk makes chunk ci writable in the current epoch, copying it (and
// its spine block) if a sealed version may still reference it.
func (s *refStore) ownChunk(ci int) *refChunk {
	b := s.ownBlock(ci >> blockBits)
	if s.cEpoch[ci] != s.epoch {
		cp := *b[ci&blockMask]
		b[ci&blockMask] = &cp
		s.cEpoch[ci] = s.epoch
	}
	return b[ci&blockMask]
}

// ownRow returns row i with a backing array owned by the current epoch,
// copying it (with extraCap growth room) if it is shared with a sealed
// version. The caller may mutate the returned slice in place and must store
// the final header with setRow.
func (s *refStore) ownRow(i NodeID, extraCap int) []NodeID {
	ch := s.ownChunk(int(i) >> chunkBits)
	r := ch[i&chunkMask]
	if s.rEpoch[i] != s.epoch {
		nr := make([]NodeID, len(r), len(r)+extraCap)
		copy(nr, r)
		r = nr
		ch[i&chunkMask] = r
		s.rEpoch[i] = s.epoch
	}
	return r
}

// setRow stores a row header. The row's backing must be owned by the current
// epoch (came from ownRow, or is freshly allocated by the caller).
func (s *refStore) setRow(i NodeID, r []NodeID) {
	s.ownChunk(int(i) >> chunkBits)[i&chunkMask] = r
	s.rEpoch[i] = s.epoch
}

// grow appends an empty row. Fresh block, chunk, and row slots need no
// copy-on-write: their indexes are beyond every sealed length, so no sealed
// reader can see them.
//
// xviewlint:cow-primitive
func (s *refStore) grow() {
	ci := s.n >> chunkBits
	if bi := ci >> blockBits; bi == len(s.blocks) {
		s.blocks = append(s.blocks, &refBlock{})
		s.bEpoch = append(s.bEpoch, s.epoch)
	}
	if ci == len(s.cEpoch) {
		s.blocks[ci>>blockBits][ci&blockMask] = &refChunk{}
		s.cEpoch = append(s.cEpoch, s.epoch)
	}
	s.rEpoch = append(s.rEpoch, s.epoch)
	s.n++
}

// seal freezes the current contents into an immutable view and starts a new
// epoch. Only the top-level block list is copied — O(n / 65536) words.
func (s *refStore) seal() sealedRefs {
	s.epoch++
	return sealedRefs{blocks: append([]*refBlock(nil), s.blocks...), n: s.n}
}

// clone deep-copies the store (rows included) for the full-clone path.
func (s *refStore) clone() refStore {
	c := refStore{
		blocks: make([]*refBlock, len(s.blocks)),
		bEpoch: make([]uint64, len(s.bEpoch)),
		cEpoch: make([]uint64, len(s.cEpoch)),
		rEpoch: make([]uint64, len(s.rEpoch)),
		n:      s.n,
	}
	for bi := range s.blocks {
		nb := &refBlock{}
		for off, ch := range s.blocks[bi] {
			if ch == nil {
				continue
			}
			nc := &refChunk{}
			for j, r := range ch {
				if len(r) > 0 {
					nc[j] = append([]NodeID(nil), r...)
				}
			}
			nb[off] = nc
		}
		c.blocks[bi] = nb
	}
	return c
}

// sealedRefs is the immutable reader side of a refStore at one epoch.
type sealedRefs struct {
	blocks []*refBlock
	n      int
}

func (v sealedRefs) row(i NodeID) []NodeID {
	return v.blocks[i>>rowBlock][(i>>chunkBits)&blockMask][i&chunkMask]
}

// chunk returns the chunk pointer covering row index i (tests use it to
// assert sharing).
func (v sealedRefs) chunk(ci int) *refChunk {
	return v.blocks[ci>>blockBits][ci&blockMask]
}

// boolChunk holds one chunk of per-node flags; boolBlock one spine block.
type (
	boolChunk [chunkSize]bool
	boolBlock [blockSize]*boolChunk
)

// boolStore is a chunked copy-on-write array of flags (the alive set).
type boolStore struct {
	blocks []*boolBlock
	bEpoch []uint64
	cEpoch []uint64
	epoch  uint64
	n      int
}

func (s *boolStore) get(i NodeID) bool {
	return s.blocks[i>>rowBlock][(i>>chunkBits)&blockMask][i&chunkMask]
}

// ownChunk makes chunk ci (and its spine block) writable in the current
// epoch, copying shared nodes first.
//
// xviewlint:cow-primitive
func (s *boolStore) ownChunk(ci int) *boolChunk {
	bi := ci >> blockBits
	if s.bEpoch[bi] != s.epoch {
		cp := *s.blocks[bi]
		s.blocks[bi] = &cp
		s.bEpoch[bi] = s.epoch
	}
	b := s.blocks[bi]
	if s.cEpoch[ci] != s.epoch {
		cp := *b[ci&blockMask]
		b[ci&blockMask] = &cp
		s.cEpoch[ci] = s.epoch
	}
	return b[ci&blockMask]
}

func (s *boolStore) set(i NodeID, v bool) {
	s.ownChunk(int(i) >> chunkBits)[i&chunkMask] = v
}

// grow appends a fresh flag; like refStore.grow it writes fresh slots
// directly because they are beyond every sealed length.
//
// xviewlint:cow-primitive
func (s *boolStore) grow(v bool) {
	ci := s.n >> chunkBits
	if bi := ci >> blockBits; bi == len(s.blocks) {
		s.blocks = append(s.blocks, &boolBlock{})
		s.bEpoch = append(s.bEpoch, s.epoch)
	}
	if ci == len(s.cEpoch) {
		s.blocks[ci>>blockBits][ci&blockMask] = &boolChunk{}
		s.cEpoch = append(s.cEpoch, s.epoch)
	}
	s.blocks[ci>>blockBits][ci&blockMask][s.n&chunkMask] = v
	s.n++
}

func (s *boolStore) seal() sealedBools {
	s.epoch++
	return sealedBools{blocks: append([]*boolBlock(nil), s.blocks...), n: s.n}
}

func (s *boolStore) clone() boolStore {
	c := boolStore{
		blocks: make([]*boolBlock, len(s.blocks)),
		bEpoch: make([]uint64, len(s.bEpoch)),
		cEpoch: make([]uint64, len(s.cEpoch)),
		n:      s.n,
	}
	for bi := range s.blocks {
		nb := &boolBlock{}
		for off, ch := range s.blocks[bi] {
			if ch != nil {
				cp := *ch
				nb[off] = &cp
			}
		}
		c.blocks[bi] = nb
	}
	return c
}

// sealedBools is the immutable reader side of a boolStore at one epoch.
type sealedBools struct {
	blocks []*boolBlock
	n      int
}

func (v sealedBools) get(i NodeID) bool {
	return v.blocks[i>>rowBlock][(i>>chunkBits)&blockMask][i&chunkMask]
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
// the epoch unit of the serving layer, not working state.
type Version struct {
	types     []string
	attrs     []relational.Tuple
	children  sealedRefs
	parents   sealedRefs
	alive     sealedBools
	byType    map[string][]NodeID
	root      NodeID
	edgeCount int
	liveCount int
}

// Seal freezes the current DAG state into an immutable Version in O(Δ):
// three top-level block lists (n/65536 words each) and the byType map
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
	return &Version{
		types:     d.types[:len(d.types):len(d.types)],
		attrs:     d.attrs[:len(d.attrs):len(d.attrs)],
		children:  d.children.seal(),
		parents:   d.parents.seal(),
		alive:     d.alive.seal(),
		byType:    byType,
		root:      d.root,
		edgeCount: d.edgeCount,
		liveCount: d.liveCount,
	}
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
	return id >= 0 && int(id) < v.alive.n && v.alive.get(id)
}

// Type returns the element type of the node.
func (v *Version) Type(id NodeID) string { return v.types[id] }

// Attr returns the semantic attribute tuple $A of the node.
func (v *Version) Attr(id NodeID) relational.Tuple { return v.attrs[id] }

// Children returns the ordered child list at the sealed epoch. Callers must
// not mutate the returned slice.
func (v *Version) Children(id NodeID) []NodeID { return v.children.row(id) }

// Parents returns the parent list at the sealed epoch. Callers must not
// mutate the returned slice.
func (v *Version) Parents(id NodeID) []NodeID { return v.parents.row(id) }

// NodesOfType returns the nodes of an element type live at the sealed
// epoch, in id order.
func (v *Version) NodesOfType(typ string) []NodeID {
	return liveSorted(v.byType[typ], v.alive.get)
}

// IDsOfType returns the raw gen_A list of the type as of the sealed epoch;
// see Reader.
func (v *Version) IDsOfType(typ string) []NodeID { return v.byType[typ] }

// Nodes returns all live node ids in id order.
func (v *Version) Nodes() []NodeID {
	out := make([]NodeID, 0, v.liveCount)
	for id := 0; id < len(v.types); id++ {
		if v.alive.get(NodeID(id)) {
			out = append(out, NodeID(id))
		}
	}
	return out
}
