package relational

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// valueCorpus is the values the tests of value_test.go use, NULL and the
// empty string included, plus strings long enough that a key outgrows the
// stack buffer it is built in.
var valueCorpus = []Value{
	Null(), Int(-5), Int(0), Int(5), Int(99), Int(-1), Int(42), Int(1 << 40),
	Bool(false), Bool(true), Var(1), Var(3),
	Str(""), Str("a"), Str("ab"), Str("abc"), Str("hello"), Str("1"), Str("\x00"),
	Str(strings.Repeat("k", KeyBufLen)), Str(strings.Repeat("é", 3*KeyBufLen)),
}

// oldEncodeCols is the key as it was built before AppendKey: each value's
// encoding converted to a string of its own, concatenated.
func oldEncodeCols(t Tuple, cols []int) string {
	s := ""
	for _, c := range cols {
		s += string(t[c].appendEncoded(nil))
	}
	return s
}

// TestAppendKeyEqualsStringForm: the append form of the key encoder yields the
// bytes the string form always has, on every tuple of up to three corpus
// values and every projection of it, behind any prefix.
func TestAppendKeyEqualsStringForm(t *testing.T) {
	var tuples []Tuple
	for _, a := range valueCorpus {
		tuples = append(tuples, Tuple{a})
		for _, b := range valueCorpus {
			tuples = append(tuples, Tuple{a, b}, Tuple{b, Null(), a})
		}
	}
	tuples = append(tuples, nil, Tuple{})
	for _, tup := range tuples {
		all := make([]int, len(tup))
		for i := range all {
			all[i] = i
		}
		want := oldEncodeCols(tup, all)
		if got := string(AppendKey(nil, tup, nil)); got != want {
			t.Fatalf("AppendKey(nil, %v, nil) = %q, want %q", tup, got, want)
		}
		if got := tup.Encode(); got != want {
			t.Fatalf("%v.Encode() = %q, want %q", tup, got, want)
		}
		if got := string(AppendKey([]byte("pre"), tup, nil)); got != "pre"+want {
			t.Fatalf("AppendKey behind a prefix = %q, want %q", got, "pre"+want)
		}
		if len(tup) == 0 {
			continue
		}
		for _, cols := range [][]int{all, {len(tup) - 1}, {len(tup) - 1, 0}} {
			want := oldEncodeCols(tup, cols)
			if got := string(AppendKey(nil, tup, cols)); got != want {
				t.Fatalf("AppendKey(nil, %v, %v) = %q, want %q", tup, cols, got, want)
			}
			if got := tup.EncodeCols(cols); got != want {
				t.Fatalf("%v.EncodeCols(%v) = %q, want %q", tup, cols, got, want)
			}
		}
	}
}

// TestKeyLookupsDoNotAllocate: a lookup builds its key on the stack, and an
// insert pays for the stored copy of the tuple and the one key string.
func TestKeyLookupsDoNotAllocate(t *testing.T) {
	r := NewRelation(loadSchema())
	for i := 0; i < 100; i++ {
		r.MustInsert(Int(int64(i)), Str(fmt.Sprintf("g%d", i%7)), Null())
	}
	r.BuildIndex(1)
	key, row := Tuple{Int(17)}, Tuple{Int(17), Str("g3"), Null()}
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := r.LookupKey(key); !ok {
			t.Fatal("key 17 missing")
		}
		if !r.ContainsKeyOf(row) {
			t.Fatal("row 17 missing")
		}
	}); n != 0 {
		t.Errorf("LookupKey + ContainsKeyOf allocate %v objects, want 0", n)
	}
	fresh := Tuple{Int(1000), Str("g3"), Null()}
	if n := testing.AllocsPerRun(100, func() {
		if err := r.Insert(fresh); err != nil {
			t.Fatal(err)
		}
		if !r.DeleteKey(fresh[:1]) {
			t.Fatal("fresh row missing")
		}
	}); n > 2 {
		t.Errorf("Insert + DeleteKey under a known index value allocate %v objects, want the row and the key", n)
	}
}

func loadSchema() *TableSchema {
	return MustTableSchema("t", []Column{
		{Name: "k", Type: KindInt}, {Name: "g", Type: KindString}, {Name: "n", Type: KindInt},
	}, "k")
}

// relationState renders everything a relation answers: Len, Scan order, the
// key index and a secondary index.
func relationState(r *Relation, keys int64, groups []Value) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "len=%d\nscan:", r.Len())
	r.Scan(func(t Tuple) bool {
		sb.WriteString(" " + t.String())
		return true
	})
	sb.WriteString("\nkeys:")
	for k := int64(0); k < keys; k++ {
		if row, ok := r.LookupKey(Tuple{Int(k)}); ok {
			sb.WriteString(" " + row.String())
		}
	}
	for _, g := range groups {
		// A bucket's order is its own business.
		rows := rowStrings(r.IndexLookup(1, g))
		fmt.Fprintf(&sb, "\nindex[%s]: %s", g, strings.Join(rows, " "))
		// The index against the rows themselves: its buckets are cut from a
		// slab too, and two relations built alike would scribble alike.
		var want []Tuple
		r.Scan(func(t Tuple) bool {
			if t[1].Equal(g) {
				want = append(want, t)
			}
			return true
		})
		if w := rowStrings(want); !slices.Equal(rows, w) {
			fmt.Fprintf(&sb, " BUT THE ROWS SAY %s", strings.Join(w, " "))
		}
	}
	return sb.String()
}

func rowStrings(rows []Tuple) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		out[i] = row.String()
	}
	sort.Strings(out)
	return out
}

// TestLoadEqualsInsert is the differential property of the bulk load: a
// relation that took ownership of slab-decoded rows and one filled by an
// Insert loop answer alike, refuse alike, and stay alike under a seeded run of
// inserts, deletes and re-inserts into freed slots — so no write to one row
// ever shows in its slab neighbour.
func TestLoadEqualsInsert(t *testing.T) {
	const nRows, keySpace = 300, 400
	groups := []Value{Str(""), Str("g0"), Str("g1"), Str("g2"), Str("g3"), Str("none")}
	mkRow := func(k int64, rng *rand.Rand) Tuple {
		row := Tuple{Int(k), groups[rng.Intn(5)], Int(int64(rng.Intn(1000)))}
		if rng.Intn(4) == 0 {
			row[2] = Null()
		}
		return row
	}
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var src []Tuple
		for _, k := range rng.Perm(keySpace)[:nRows] {
			src = append(src, mkRow(int64(k), rng))
		}
		// The loaded side gets its rows the way a restore does: encoded, and
		// decoded into a slab.
		var enc []byte
		for _, row := range src {
			enc = AppendTuple(enc, row)
		}
		var slab Slab
		decoded := make([]Tuple, len(src))
		for i, b := 0, enc; i < len(src); i++ {
			var err error
			if decoded[i], b, err = slab.DecodeTuple(b); err != nil {
				t.Fatal(err)
			}
		}
		for i := range enc {
			enc[i] = 0xee // decoded rows must not alias their input
		}
		loaded, inserted := NewRelation(loadSchema()), NewRelation(loadSchema())
		if err := loaded.Load(decoded); err != nil {
			t.Fatal(err)
		}
		for _, row := range src {
			if err := inserted.Insert(row); err != nil {
				t.Fatal(err)
			}
		}
		same := func(when string) {
			t.Helper()
			if got, want := relationState(loaded, keySpace, groups), relationState(inserted, keySpace, groups); got != want || strings.Contains(got, "BUT") {
				t.Fatalf("seed %d, %s: loaded relation\n%s\ninserted relation\n%s", seed, when, got, want)
			}
		}
		same("after the load")
		for op := 0; op < 2000; op++ {
			k := int64(rng.Intn(keySpace))
			if rng.Intn(2) == 0 {
				row := mkRow(k, rng)
				errL, errI := loaded.Insert(row), inserted.Insert(row)
				if (errL == nil) != (errI == nil) {
					t.Fatalf("seed %d op %d: insert %v: loaded says %v, inserted says %v", seed, op, row, errL, errI)
				}
			} else if gotL, gotI := loaded.DeleteKey(Tuple{Int(k)}), inserted.DeleteKey(Tuple{Int(k)}); gotL != gotI {
				t.Fatalf("seed %d op %d: delete %d: loaded says %v, inserted says %v", seed, op, k, gotL, gotI)
			}
			if op%100 == 0 {
				same(fmt.Sprintf("after op %d", op))
			}
		}
		same("after the run")
	}
}

// TestLoadRefusesWhatInsertRefuses: arity, kind and duplicate key are refused
// with Insert's own errors, and a relation that refused its rows stays empty
// and loadable.
func TestLoadRefusesWhatInsertRefuses(t *testing.T) {
	good := Tuple{Int(1), Str("g"), Int(7)}
	for name, bad := range map[string]Tuple{
		"arity":     {Int(2), Str("g")},
		"nil row":   nil,
		"kind":      {Int(2), Int(3), Int(7)},
		"key kind":  {Str("2"), Str("g"), Int(7)},
		"duplicate": {Int(1), Str("other"), Null()},
	} {
		ins := NewRelation(loadSchema())
		if err := ins.Insert(good); err != nil {
			t.Fatal(err)
		}
		want := ins.Insert(bad)
		if want == nil {
			t.Fatalf("%s: Insert accepted %v", name, bad)
		}
		r := NewRelation(loadSchema())
		got := r.Load([]Tuple{good.Clone(), bad})
		if got == nil || got.Error() != want.Error() {
			t.Errorf("%s: Load says %v, Insert says %v", name, got, want)
		}
		if r.Len() != 0 {
			t.Errorf("%s: a refused load left %d rows", name, r.Len())
		}
		if err := r.Load([]Tuple{good.Clone()}); err != nil || r.Len() != 1 {
			t.Errorf("%s: load after a refused load: %v, %d rows", name, err, r.Len())
		}
	}
	r := NewRelation(loadSchema())
	r.MustInsert(Int(1), Str("g"), Null())
	if err := r.Load([]Tuple{{Int(2), Str("g"), Null()}}); err == nil {
		t.Error("Load into a relation in use accepted")
	}
	// NULL is of every kind, as for Insert.
	if err := NewRelation(loadSchema()).Load([]Tuple{{Int(3), Null(), Null()}}); err != nil {
		t.Errorf("Load refused NULLs: %v", err)
	}
}
