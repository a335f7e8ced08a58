// Seeded violations: in-place stores into spine-reachable memory.
package cow

// badSet skips own entirely.
func (a *Array[T]) badSet(i int, v T) {
	a.blocks[i>>rowBlock][(i>>chunkBits)&blockMask][i&chunkMask] = v // want "spine-reachable"
}

// badViaVar routes the spine through a local: provenance follows it.
func (a *Array[T]) badViaVar(bi, ci int) {
	b := a.blocks[bi]
	b[ci&blockMask] = &chunk[T]{} // want "spine-reachable"
}

// badDeref overwrites a shared chunk in place through a pointer.
func (a *Array[T]) badDeref(ci int) {
	ch := a.blocks[ci>>blockBits][ci&blockMask]
	*ch = chunk[T]{} // want "spine-reachable"
}

// badCopy mutates a shared chunk with copy instead of an indexed store.
func (a *Array[T]) badCopy(ci int, src []T) {
	ch := a.blocks[ci>>blockBits][ci&blockMask]
	copy(ch[:], src) // want "spine-reachable"
}

// badAppendAlias: append over a spine-reachable slice may write into shared
// capacity.
func (a *Array[T]) badAppendAlias(ci int, v T) {
	row := append(a.blocks[ci>>blockBits][ci&blockMask][:0], v)
	row[0] = v // want "spine-reachable"
}
