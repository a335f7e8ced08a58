package slab

import (
	"bytes"
	"fmt"
	"testing"
)

// TestRowsAreNobodysNeighbour: rows of every size up to past a chunk are
// zeroed, have their capacity cut to their length, and keep what was written
// to them whatever is written or appended to the rows around them.
func TestRowsAreNobodysNeighbour(t *testing.T) {
	var s Of[int]
	var rows [][]int
	for i, n := range []int{0, 1, 3, 7, ChunkLen/4 - 1, ChunkLen / 4, 5, ChunkLen, 2, ChunkLen + 1, 9, 200, 200, 200, 200, 200, 200} {
		row := s.Make(n)
		if len(row) != n || cap(row) != n {
			t.Fatalf("Make(%d): len %d cap %d", n, len(row), cap(row))
		}
		for j, v := range row {
			if v != 0 {
				t.Fatalf("Make(%d)[%d] = %d, want 0", n, j, v)
			}
			row[j] = i
		}
		rows = append(rows, row)
	}
	for i := range rows {
		_ = append(rows[i], -1) // must move, not write behind the row
	}
	for i, row := range rows {
		for j, v := range row {
			if v != i {
				t.Fatalf("row %d[%d] = %d after writes to its neighbours", i, j, v)
			}
		}
	}
}

// TestStringsCopyAndKeep: a string is a copy of its bytes, and strings handed
// out earlier survive every later Add, across chunks and past the size that
// gets an allocation of its own.
func TestStringsCopyAndKeep(t *testing.T) {
	var a Strings
	var got, want []string
	for i := 0; i < 3000; i++ {
		p := []byte(fmt.Sprintf("string-%d-", i))
		switch i % 500 {
		case 0:
			p = nil
		case 1:
			p = bytes.Repeat(p, ChunkBytes/len(p)) // ≥ a quarter chunk
		}
		want = append(want, string(p))
		got = append(got, a.Add(p))
		for j := range p {
			p[j] = 0xee
		}
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("string %d = %q, want %q", i, got[i], want[i])
		}
	}
	if n := testing.AllocsPerRun(1000, func() { a.Add([]byte("0123456789abcdef")) }); n > 0.01 {
		t.Errorf("Add allocates %v objects per 16-byte string, want one per %d", n, ChunkBytes/16)
	}
}
