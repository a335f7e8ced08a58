// Package slab cuts many small rows out of few allocations, for code that
// builds a large structure in one go — a checkpoint decoded into tuples, child
// lists and map keys — and would otherwise pay the allocator once per item.
//
// A row is handed out with its capacity cut to its length, so an append to it
// reallocates instead of running into its neighbour; writing within a row
// touches that row alone. Chunks have a fixed size: a chunk lives as long as
// any row cut from it, so however the structure churns afterwards, one
// surviving row pins one chunk, never the whole load. The zero value of both
// types is ready to use; neither is safe for concurrent use.
package slab

import "strings"

// Chunk sizes: elements per chunk of an Of, bytes per chunk of a Strings. A
// request of a quarter chunk or more gets an allocation of its own instead of
// wasting the rest of the current chunk.
const (
	ChunkLen   = 1024
	ChunkBytes = 16 << 10
)

// Of hands out rows of T.
type Of[T any] struct{ free []T }

// Make returns a zeroed row of length and capacity n.
func (s *Of[T]) Make(n int) []T {
	if n > len(s.free) {
		if n >= ChunkLen/4 {
			return make([]T, n)
		}
		s.free = make([]T, ChunkLen)
	}
	row := s.free[:n:n]
	s.free = s.free[n:]
	return row
}

// Strings is a string arena: Add copies the bytes — the result never aliases
// its argument — behind the ones it copied before.
type Strings struct{ b strings.Builder }

// Add returns string(p), held in the arena.
func (a *Strings) Add(p []byte) string {
	if len(p) > a.b.Cap()-a.b.Len() {
		if len(p) >= ChunkBytes/4 {
			return string(p)
		}
		// The strings handed out so far keep the old buffer; a Builder only
		// ever writes behind what it has returned.
		a.b.Reset()
		a.b.Grow(ChunkBytes)
	}
	off := a.b.Len()
	a.b.Write(p)
	return a.b.String()[off:]
}
