package relational

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
)

// sumTupleLen is what EncodedLen must say: TupleLen summed over Scan.
func sumTupleLen(r *Relation) int {
	n := 0
	r.Scan(func(t Tuple) bool {
		n += TupleLen(t)
		return true
	})
	return n
}

// TestEncodedLenIsSumOfTupleLen is the property a checkpoint sizes its buffer
// by: after every step of a seeded run of Insert, DeleteTuple, DeleteKey,
// Apply (some rolled back part-way), Load (accepted and refused), Clone and
// Swap, a relation's EncodedLen is Σ TupleLen over its live rows. Rows differ
// in encoded length by their non-key columns, so a deletion that took off the
// length of its argument instead of the stored row's goes red.
func TestEncodedLenIsSumOfTupleLen(t *testing.T) {
	const keySpace = 64
	schema := MustSchema(loadSchema())
	rng := rand.New(rand.NewSource(7))
	mkRow := func(k int64) Tuple {
		row := Tuple{Int(k), Str(strings.Repeat("g", rng.Intn(40))), Int(rng.Int63())}
		if rng.Intn(3) == 0 {
			row[2] = Null()
		}
		return row
	}
	db := NewDatabase(schema)
	check := func(op int, what string, r *Relation) {
		t.Helper()
		if got, want := r.EncodedLen(), sumTupleLen(r); got != want {
			t.Fatalf("op %d, %s: EncodedLen %d, Σ TupleLen over %d rows %d", op, what, got, r.Len(), want)
		}
	}
	var unlikeDeletes, rollbacks, loads, refusedLoads int
	for op := 0; op < 4000; op++ {
		rel := db.Rel("t")
		k := int64(rng.Intn(keySpace))
		switch rng.Intn(7) {
		case 0, 1:
			_ = rel.Insert(mkRow(k)) // a duplicate key is refused and changes nothing
			check(op, "Insert", rel)
		case 2:
			// The argument's non-key columns are drawn afresh, so they differ
			// from the stored row's, in length too, most of the time.
			arg := mkRow(k)
			stored, ok := rel.LookupKey(Tuple{Int(k)})
			if rel.DeleteTuple(arg) && ok && TupleLen(stored) != TupleLen(arg) {
				unlikeDeletes++
			}
			check(op, "DeleteTuple", rel)
		case 3:
			rel.DeleteKey(Tuple{Int(k)})
			check(op, "DeleteKey", rel)
		case 4:
			// A group of inserts and deletes of stored rows; half the time a
			// last mutation that cannot apply rolls all of it back, and the
			// relation is where it started.
			before := rel.EncodedLen()
			var dr []Mutation
			for i, k := range rng.Perm(keySpace)[:1+rng.Intn(4)] {
				if stored, ok := rel.LookupKey(Tuple{Int(int64(k))}); ok && rng.Intn(2) == 0 {
					dr = append(dr, Mutation{Table: "t", Tuple: stored})
				} else {
					// A key no other step draws, so the insert applies.
					dr = append(dr, Mutation{Table: "t", Insert: true, Tuple: mkRow(int64(keySpace + 4*op + i))})
				}
			}
			doomed := rng.Intn(2) == 0
			if doomed {
				dr = append(dr, Mutation{Table: "t", Tuple: mkRow(-1)})
			}
			err := db.Apply(dr)
			if doomed != errors.Is(err, ErrNoSuchTuple) {
				t.Fatalf("op %d: Apply of %d mutations: %v", op, len(dr), err)
			}
			if doomed {
				rollbacks++
				if rel.EncodedLen() != before {
					t.Fatalf("op %d: a rolled-back Apply moved EncodedLen %d → %d", op, before, rel.EncodedLen())
				}
			}
			check(op, "Apply", rel)
		case 5:
			// A bulk load into a fresh instance: refused when the last row
			// repeats a key, swapped in for the live one when accepted.
			fresh := NewDatabase(schema)
			var rows []Tuple
			for _, k := range rng.Perm(keySpace)[:rng.Intn(keySpace)] {
				rows = append(rows, mkRow(int64(k)))
			}
			if len(rows) > 0 && rng.Intn(3) == 0 {
				rows = append(rows, mkRow(rows[0][0].I))
				if fresh.Load("t", rows) == nil {
					t.Fatalf("op %d: Load accepted a duplicate key", op)
				}
				refusedLoads++
				if n := fresh.Rel("t").EncodedLen(); n != 0 {
					t.Fatalf("op %d: a refused Load left EncodedLen %d", op, n)
				}
				continue
			}
			if err := fresh.Load("t", rows); err != nil {
				t.Fatal(err)
			}
			loads++
			check(op, "Load", fresh.Rel("t"))
			db.Swap(fresh)
			check(op, "Swap, the loaded side", db.Rel("t"))
			check(op, "Swap, the other side", fresh.Rel("t"))
		case 6:
			clone := db.Clone()
			check(op, "Clone", clone.Rel("t"))
			if rng.Intn(2) == 0 {
				db = clone
			}
		}
	}
	if unlikeDeletes == 0 || rollbacks == 0 || loads == 0 || refusedLoads == 0 {
		t.Fatalf("the run missed a case: %d deletions by an unlike tuple, %d rollbacks, %d loads, %d refused loads",
			unlikeDeletes, rollbacks, loads, refusedLoads)
	}
}
