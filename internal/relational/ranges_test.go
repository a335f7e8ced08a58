package relational

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// TestCleanRangesHoldTheirBytes is the property a checkpoint reads ranges
// back by: after every step of a seeded run of Insert, DeleteTuple, Apply
// (some rolled back part-way), Load, Clone and MarkClean, a relation's
// ranges laid end to end are its rows in Scan order, and every range it calls
// clean appends the bytes it appended at its last MarkClean. A loaded or
// cloned relation has no clean range until it is marked.
func TestCleanRangesHoldTheirBytes(t *testing.T) {
	const keySpace = 700 // about three ranges of slots
	rng := rand.New(rand.NewSource(5))
	mkRow := func(k int64) Tuple {
		return Tuple{Int(k), Str(strings.Repeat("g", rng.Intn(20))), Int(rng.Int63())}
	}
	schema := MustSchema(loadSchema())
	db := NewDatabase(schema)
	marked := map[*Relation][][]byte{} // per relation, per range, its bytes at MarkClean
	var cleanChecked, rollbacks, loads, maxRanges int
	check := func(op int, what string, r *Relation) {
		t.Helper()
		var ranges, scan []byte
		maxRanges = max(maxRanges, r.Ranges())
		for i := range r.Ranges() {
			b := r.AppendRange(nil, i)
			ranges = append(ranges, b...)
			if r.RangeClean(i) {
				cleanChecked++
				if m := marked[r]; i >= len(m) || !bytes.Equal(b, m[i]) {
					t.Fatalf("op %d, %s: range %d is called clean, and its bytes changed since MarkClean", op, what, i)
				}
			}
		}
		r.Scan(func(row Tuple) bool {
			scan = AppendTuple(scan, row)
			return true
		})
		if !bytes.Equal(ranges, scan) {
			t.Fatalf("op %d, %s: the ranges end to end are not the rows in Scan order", op, what)
		}
	}
	noneClean := func(op int, what string, r *Relation) {
		t.Helper()
		for i := range r.Ranges() {
			if r.RangeClean(i) {
				t.Fatalf("op %d, %s: range %d is clean before any MarkClean", op, what, i)
			}
		}
	}
	for op := 0; op < 5000; op++ {
		rel := db.Rel("t")
		k := int64(rng.Intn(keySpace))
		switch rng.Intn(8) {
		case 0, 1, 2:
			_ = rel.Insert(mkRow(k))
			check(op, "Insert", rel)
		case 3:
			rel.DeleteTuple(mkRow(k))
			check(op, "DeleteTuple", rel)
		case 4:
			dr := []Mutation{{Table: "t", Insert: true, Tuple: mkRow(keySpace + int64(op))}}
			if stored, ok := rel.LookupKey(Tuple{Int(k)}); ok {
				dr = append(dr, Mutation{Table: "t", Tuple: stored})
			}
			if rng.Intn(2) == 0 {
				dr = append(dr, Mutation{Table: "t", Tuple: mkRow(-1)}) // cannot apply: all of it rolls back
				rollbacks++
			}
			_ = db.Apply(dr)
			check(op, "Apply", rel)
		case 5:
			if rng.Intn(8) != 0 {
				continue
			}
			fresh := NewDatabase(schema)
			var rows []Tuple
			for _, k := range rng.Perm(keySpace)[:rng.Intn(keySpace)] {
				rows = append(rows, mkRow(int64(k)))
			}
			if err := fresh.Load("t", rows); err != nil {
				t.Fatal(err)
			}
			loads++
			noneClean(op, "Load", fresh.Rel("t"))
			db.Swap(fresh)
			check(op, "Load", db.Rel("t"))
		case 6:
			clone := db.Clone()
			noneClean(op, "Clone", clone.Rel("t"))
			if rng.Intn(4) == 0 {
				db = clone
			}
		case 7:
			rel.MarkClean()
			marked[rel] = marked[rel][:0]
			for i := range rel.Ranges() {
				marked[rel] = append(marked[rel], rel.AppendRange(nil, i))
			}
			check(op, "MarkClean", rel)
		}
	}
	if cleanChecked == 0 || rollbacks == 0 || loads == 0 || maxRanges < 3 {
		t.Fatalf("the run missed a case: %d clean ranges checked, %d rollbacks, %d loads, at most %d ranges",
			cleanChecked, rollbacks, loads, maxRanges)
	}
}
