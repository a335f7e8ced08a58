package relational

import "slices"

// RangeLen is the number of slots in a range: the unit in which a checkpoint
// tracks what changed since the previous one — row slots of a relation, ids
// of a DAG's identity table — and reads back, instead of encoding again,
// what did not.
const RangeLen = 256

// RangeCount is the number of ranges that n slots take.
func RangeCount(n int) int { return (n + RangeLen - 1) / RangeLen }

// CleanRanges records which ranges of RangeLen slots no write has touched
// since MarkClean. A range is clean only while its bit is set, and a range
// past the bits is dirty, so the zero value calls everything dirty: a new or
// loaded structure stays dirty throughout until its first checkpoint lands.
type CleanRanges struct{ bits []uint64 }

// Write marks the range that holds slot dirty.
func (c *CleanRanges) Write(slot int) {
	r := slot / RangeLen
	if w := r / 64; w < len(c.bits) {
		c.bits[w] &^= 1 << (r % 64)
	}
}

// Clean reports whether no write has touched range r since MarkClean.
func (c *CleanRanges) Clean(r int) bool {
	w := r / 64
	return w < len(c.bits) && c.bits[w]&(1<<(r%64)) != 0
}

// MarkClean marks the ranges that cover slots [0, n) clean and every range
// past them dirty.
func (c *CleanRanges) MarkClean(n int) {
	ranges := RangeCount(n)
	words := (ranges + 63) / 64
	c.bits = slices.Grow(c.bits[:0], words)[:words]
	for w := range c.bits {
		c.bits[w] = ^uint64(0)
	}
	if tail := ranges % 64; tail != 0 {
		c.bits[words-1] = 1<<tail - 1
	}
}
