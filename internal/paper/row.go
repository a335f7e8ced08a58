package paper

import (
	"iter"
	"math/bits"

	"rxview/internal/dag"
)

// Row is a dense bitset over NodeIDs: bit i of word i/64 is set when node i
// is in the set. Rows are the storage unit of the reachability matrix M —
// one ancestor row and one descendant row per node — and the working sets of
// the maintenance and evaluation algorithms, which combine them with
// word-level union/subtract instead of per-pair map operations.
//
// A Row is truncated: it only holds words up to the highest one it has ever
// needed, and mutating methods grow it on demand. Absent words read as zero,
// so rows of different lengths compare and combine correctly.
type Row []uint64

// NewRow returns an empty row pre-sized for node ids < capacity.
func NewRow(capacity int) Row { return make(Row, (capacity+63)/64) }

// Contains reports whether the node is in the set.
func (r Row) Contains(id dag.NodeID) bool {
	w := int(id) >> 6
	return id >= 0 && w < len(r) && r[w]&(1<<(uint(id)&63)) != 0
}

func (r *Row) grow(words int) {
	if words > len(*r) {
		nr := make(Row, words)
		copy(nr, *r)
		*r = nr
	}
}

// Set adds the node and reports whether it was absent.
func (r *Row) Set(id dag.NodeID) bool {
	w, b := int(id)>>6, uint64(1)<<(uint(id)&63)
	r.grow(w + 1)
	if (*r)[w]&b != 0 {
		return false
	}
	(*r)[w] |= b
	return true
}

// Unset removes the node and reports whether it was present.
func (r *Row) Unset(id dag.NodeID) bool {
	w, b := int(id)>>6, uint64(1)<<(uint(id)&63)
	if w >= len(*r) || (*r)[w]&b == 0 {
		return false
	}
	(*r)[w] &^= b
	return true
}

// Or unions src into r word by word and returns the number of newly set
// bits.
func (r *Row) Or(src Row) int {
	n := len(src)
	for n > 0 && src[n-1] == 0 {
		n--
	}
	r.grow(n)
	added := 0
	dst := *r
	for i := 0; i < n; i++ {
		if nw := src[i] &^ dst[i]; nw != 0 {
			added += bits.OnesCount64(nw)
			dst[i] |= nw
		}
	}
	return added
}

// Count returns the number of set bits (population count).
func (r Row) Count() int {
	n := 0
	for _, w := range r {
		n += bits.OnesCount64(w)
	}
	return n
}

// AnyNotIn reports whether r has a bit outside mask — one pass of
// word-level subtract with early exit, no iteration over members.
func (r Row) AnyNotIn(mask Row) bool {
	for i, w := range r {
		if w == 0 {
			continue
		}
		var m uint64
		if i < len(mask) {
			m = mask[i]
		}
		if w&^m != 0 {
			return true
		}
	}
	return false
}

// All iterates the members in ascending id order.
func (r Row) All() iter.Seq[dag.NodeID] {
	return func(yield func(dag.NodeID) bool) {
		for i, w := range r {
			for w != 0 {
				id := dag.NodeID(i<<6 + bits.TrailingZeros64(w))
				if !yield(id) {
					return
				}
				w &= w - 1
			}
		}
	}
}

// Slice returns the members as a sorted slice.
func (r Row) Slice() []dag.NodeID {
	out := make([]dag.NodeID, 0, r.Count())
	for id := range r.All() {
		out = append(out, id)
	}
	return out
}

// Reset clears every bit, keeping the allocation.
func (r Row) Reset() {
	for i := range r {
		r[i] = 0
	}
}

// EqualRow reports whether two rows hold the same set, ignoring trailing
// zero words.
func (r Row) EqualRow(o Row) bool {
	n := len(r)
	if len(o) > n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		var a, b uint64
		if i < len(r) {
			a = r[i]
		}
		if i < len(o) {
			b = o[i]
		}
		if a != b {
			return false
		}
	}
	return true
}
