package reach

import (
	"math/bits"
	"slices"
)

// freeSlots is the set of tombstoned positions of L, the holes a new subtree
// is placed into: one bit per position, and one summary bit per word of
// them, so the lowest hole above a position is found by reading
// O(|L|/4096) words, never by a scan of L. Bits past the end of L are
// always clear.
type freeSlots struct {
	words []uint64
	sum   []uint64 // bit w: words[w] != 0
}

func (f *freeSlots) add(i int) {
	w := i >> 6
	for w >= len(f.words) {
		f.words = append(f.words, 0)
	}
	for w>>6 >= len(f.sum) {
		f.sum = append(f.sum, 0)
	}
	f.words[w] |= 1 << (i & 63)
	f.sum[w>>6] |= 1 << (w & 63)
}

func (f *freeSlots) remove(i int) {
	w := i >> 6
	if w >= len(f.words) {
		return
	}
	f.words[w] &^= 1 << (i & 63)
	if f.words[w] == 0 {
		f.sum[w>>6] &^= 1 << (w & 63)
	}
}

func (f *freeSlots) has(i int) bool {
	w := i >> 6
	return w < len(f.words) && f.words[w]&(1<<(i&63)) != 0
}

// next returns the lowest free position ≥ i, or -1 when there is none.
func (f *freeSlots) next(i int) int {
	w := i >> 6
	if w >= len(f.words) {
		return -1
	}
	if m := f.words[w] &^ (1<<(i&63) - 1); m != 0 {
		return w<<6 + bits.TrailingZeros64(m)
	}
	w++
	for s := w >> 6; s < len(f.sum); s++ {
		m := f.sum[s]
		if s == w>>6 {
			m &^= 1<<(w&63) - 1
		}
		if m != 0 {
			ww := s<<6 + bits.TrailingZeros64(m)
			return ww<<6 + bits.TrailingZeros64(f.words[ww])
		}
	}
	return -1
}

func (f *freeSlots) reset() {
	clear(f.words)
	clear(f.sum)
}

func (f *freeSlots) clone() freeSlots {
	return freeSlots{words: slices.Clone(f.words), sum: slices.Clone(f.sum)}
}
