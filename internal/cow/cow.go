// Package cow is the one copy-on-write array behind every sealed epoch: the
// DAG's adjacency rows and alive bits (internal/dag) are each an Array, and
// a published Version holds the Sealed side.
//
// The serving layer publishes one immutable epoch per applied write; copying
// per-node state per epoch would make publication O(n) whatever the update's
// size, undoing the paper's everywhere-incremental design at the last step.
// An Array keeps its elements in fixed-size chunks (ChunkSize elements) and
// the chunk pointers in fixed-size spine blocks (256 chunks, so one block
// covers 4096 elements). The writer copies a block or chunk only the first
// time it touches it after a Seal, and Seal itself copies just the top-level
// block list — n/4096 pointers, six words for the ≈ 22k nodes of the §5 view
// at |C|=5000, 27 at |C|=25000 — so publication cost tracks the write that
// preceded it, not the view size.
//
// The chunk is small because every commit seals: a write after a seal
// copies each chunk it touches whole, and a value-selected update touches
// rows scattered over the view. Sixteen row headers are 384 bytes, the
// largest pointerful object Go allocates without a malloc header being 512;
// a block of 256 chunk pointers is 2 KB.
//
// Why the sharing is safe:
//   - a Sealed holds its own top-level block list, so the writer may swap
//     block pointers freely;
//   - a block or chunk reachable from any Sealed is never written: the
//     per-block and per-chunk epochs record when the writer installed each
//     pointer, and own replaces anything older than the current epoch before
//     the first write after a seal;
//   - the one store that skips own is Push into a slot at or beyond the
//     longest length ever sealed: no Sealed reads it, whichever chunk it is
//     in. A slot below that length can have readers even when it is past the
//     current end (Truncate shrank the array after that seal), so Push
//     copies on write there like Set.
//
// An element that is itself a reference (a slice) is shared with the sealed
// epochs like any other element: who may write through it is the caller's
// business (dag's refStore owns its rows' backing arrays per epoch).
//
// An Array has one writer; a Sealed is safe for any number of concurrent
// readers, alongside that writer.
//
// What holds a change here to that argument is cow_test.go, run under -race:
// TestArrayMatchesSliceModel compares every sealed view with the slice copy
// taken at its seal after every later operation, and TestMethodInventory
// fails when Array or Sealed gains an exported method the model does not
// drive. A store that must skip own (as Push's does) needs its own bullet
// above and its own case in the model.
package cow

const (
	chunkBits = 4
	blockBits = 8 // chunks per spine block
	chunkMask = ChunkSize - 1
	blockMask = 1<<blockBits - 1
	rowBlock  = chunkBits + blockBits // element index -> block index shift

	// ChunkSize is the number of elements in one chunk: the unit the writer
	// copies, and the unit two sealed epochs share.
	ChunkSize = 1 << chunkBits
)

type (
	chunk[T any] [ChunkSize]T
	block[T any] [1 << blockBits]*chunk[T]
)

// Array is the writer side: a growable array of T whose Seal costs
// O(n/4096) and whose first write to a chunk after a Seal copies that
// chunk (and its spine block) and nothing else. The zero Array is empty and
// ready to use.
type Array[T any] struct {
	blocks  []*block[T]
	bEpoch  []uint64 // per block: epoch its pointer was installed at
	cEpoch  []uint64 // per chunk ever allocated: likewise
	epoch   uint64   // bumped by Seal; anything older is shared
	n       int
	sealedN int // longest length ever sealed: slots below it may have readers
}

// Len returns the number of elements.
func (a *Array[T]) Len() int { return a.n }

// At returns element i.
func (a *Array[T]) At(i int) T {
	return a.blocks[i>>rowBlock][(i>>chunkBits)&blockMask][i&chunkMask]
}

// own makes the chunk holding slot i (and its spine block) writable in the
// current epoch, copying each first if a Sealed may still reference it.
func (a *Array[T]) own(i int) *chunk[T] {
	ci := i >> chunkBits
	bi := ci >> blockBits
	if a.bEpoch[bi] != a.epoch {
		cp := *a.blocks[bi]
		a.blocks[bi] = &cp
		a.bEpoch[bi] = a.epoch
	}
	b := a.blocks[bi]
	if a.cEpoch[ci] != a.epoch {
		cp := *b[ci&blockMask]
		b[ci&blockMask] = &cp
		a.cEpoch[ci] = a.epoch
	}
	return b[ci&blockMask]
}

// Set overwrites element i.
func (a *Array[T]) Set(i int, v T) { a.own(i)[i&chunkMask] = v }

// Push appends an element. A chunk slot that was never allocated, and an
// element slot at or beyond every sealed length, have no reader and are
// written in place; see the package comment.
func (a *Array[T]) Push(v T) {
	ci := a.n >> chunkBits
	if ci == len(a.cEpoch) {
		if ci>>blockBits == len(a.blocks) {
			a.blocks = append(a.blocks, &block[T]{})
			a.bEpoch = append(a.bEpoch, a.epoch)
		}
		a.blocks[ci>>blockBits][ci&blockMask] = &chunk[T]{}
		a.cEpoch = append(a.cEpoch, a.epoch)
	}
	if a.n < a.sealedN {
		a.Set(a.n, v)
	} else {
		a.blocks[ci>>blockBits][ci&blockMask][a.n&chunkMask] = v
	}
	a.n++
}

// Truncate drops the elements from n on. Their slots are not cleared (a
// Sealed may still read them); Push overwrites them.
func (a *Array[T]) Truncate(n int) { a.n = n }

// Seal freezes the current contents into an immutable view and starts a new
// epoch. Only the top-level block list is copied.
func (a *Array[T]) Seal() Sealed[T] {
	a.epoch++
	a.sealedN = max(a.sealedN, a.n)
	return Sealed[T]{blocks: append([]*block[T](nil), a.blocks...), n: a.n}
}

// Sealed is the reader side of an Array at one epoch.
type Sealed[T any] struct {
	blocks []*block[T]
	n      int
}

// Len returns the number of elements at the sealed epoch.
func (s Sealed[T]) Len() int { return s.n }

// At returns element i as of the sealed epoch.
func (s Sealed[T]) At(i int) T {
	return s.blocks[i>>rowBlock][(i>>chunkBits)&blockMask][i&chunkMask]
}

// SameChunk reports whether slot i of s and of o is the same memory: the
// chunk was not written between the two seals. Tests assert sharing with it.
func (s Sealed[T]) SameChunk(o Sealed[T], i int) bool {
	ci := i >> chunkBits
	return s.blocks[ci>>blockBits][ci&blockMask] == o.blocks[ci>>blockBits][ci&blockMask]
}
