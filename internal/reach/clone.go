package reach

// Clone returns an independent, mutable copy of the topological order. The
// entry chunks are deep-copied; snapshot publication uses Seal instead,
// which shares untouched blocks and chunks and costs O(n/65536).
func (t *Topo) Clone() *Topo {
	c := &Topo{
		blocks: make([]*idBlock, len(t.blocks)),
		bEpoch: make([]uint64, len(t.blocks)),
		cEpoch: make([]uint64, len(t.cEpoch)),
		n:      t.n,
		chunks: t.chunks,
		pos:    append([]int32(nil), t.pos...),
		holes:  t.holes,
	}
	for bi := range t.blocks {
		nb := &idBlock{}
		for off, ch := range t.blocks[bi] {
			if ch != nil {
				cp := *ch
				nb[off] = &cp
			}
		}
		c.blocks[bi] = nb
	}
	return c
}
