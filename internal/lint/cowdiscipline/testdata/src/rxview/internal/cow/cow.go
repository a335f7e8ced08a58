// Fixture mirroring the real Array from internal/cow: a two-level block
// spine of chunks with per-level epoch stamps. Clean code goes through own;
// the seeded violations store into spine-reachable memory directly.
package cow

const (
	chunkBits = 8
	blockBits = 8
	rowBlock  = chunkBits + blockBits
	chunkMask = 1<<chunkBits - 1
	blockMask = 1<<blockBits - 1
)

type (
	chunk[T any] [1 << chunkBits]T
	block[T any] [1 << blockBits]*chunk[T]
)

type Array[T any] struct {
	blocks []*block[T]
	bEpoch []uint64
	cEpoch []uint64
	epoch  uint64
	n      int
}

// own is the real primitive: it must store into the spine to install the
// copied block and chunk, so it carries the audit annotation.
//
// xviewlint:cow-primitive
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

// Set is clean: the destination chunk comes from own.
func (a *Array[T]) Set(i int, v T) { a.own(i)[i&chunkMask] = v }

// Clone is clean: c's spine is freshly built, so stores into it are
// construction.
func (a *Array[T]) Clone() Array[T] {
	c := Array[T]{
		blocks: make([]*block[T], len(a.blocks)),
		epoch:  a.epoch,
		n:      a.n,
	}
	for bi := range a.blocks {
		nb := &block[T]{}
		for off, ch := range a.blocks[bi] {
			if ch != nil {
				cp := *ch
				nb[off] = &cp
			}
		}
		c.blocks[bi] = nb
	}
	return c
}
