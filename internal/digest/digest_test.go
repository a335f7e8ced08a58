package digest

import (
	"errors"
	"hash/fnv"
	"testing"

	"rxview/internal/dag"
	"rxview/internal/relational"
	"rxview/internal/testkit"
)

// TestLanesAreStdlibFNV1a: the inlined loop is hash/fnv's New64a — lane A
// over the item's bytes, lane B over the same bytes behind one 0xFF — so the
// digest depends on nothing a process, a platform or a Go release could vary.
func TestLanesAreStdlibFNV1a(t *testing.T) {
	for _, in := range []string{"", "a", "N" + "course\x00" + "\x01\x03\x00\x00\x00\x05CS650", string(make([]byte, 300))} {
		ha := fnv.New64a()
		ha.Write([]byte(in))
		hb := fnv.New64a()
		hb.Write([]byte{0xff})
		hb.Write([]byte(in))
		a, b := fnv1a([]byte(in))
		if a != ha.Sum64() || b != hb.Sum64() {
			t.Errorf("fnv1a(%q) = %x, %x; hash/fnv says %x, %x", in, a, b, ha.Sum64(), hb.Sum64())
		}
	}
}

func testDB(t *testing.T) *relational.Database {
	t.Helper()
	cols := []relational.Column{{Name: "k", Type: relational.KindInt}, {Name: "v", Type: relational.KindString}}
	schema, err := relational.NewSchema(
		testkit.Must(relational.NewTableSchema("r", cols, "k")),
		testkit.Must(relational.NewTableSchema("s", cols, "k")),
	)
	if err != nil {
		t.Fatal(err)
	}
	return relational.NewDatabase(schema)
}

func attr(k int64) relational.Tuple { return relational.Tuple{relational.Int(k)} }

// TestStepFollowsFullPass drives a DAG and a database through every kind of
// delta op and mutation — births, an edge removed and re-added, a death, a
// resurrection, a row deleted and re-inserted — and holds the stepped digest
// to the full pass after each record.
func TestStepFollowsFullPass(t *testing.T) {
	d, db := dag.New("root"), testDB(t)
	sum := Of(d, db)
	if sum.IsZero() || sum.String() == "none" {
		t.Fatalf("digest of the empty state is the no-digest value: %v", sum)
	}
	record := func(name string, mutate func(), dr ...relational.Mutation) {
		t.Helper()
		d.Begin()
		mutate()
		delta := d.DeltaSince(0)
		d.Commit()
		if err := db.Apply(dr); err != nil {
			t.Fatal(err)
		}
		before := sum
		sum = sum.Step(d, delta, dr)
		if want := Of(d, db); sum != want {
			t.Fatalf("%s: stepped digest %v, full pass %v", name, sum, want)
		}
		if len(delta)+len(dr) > 0 && sum == before {
			t.Fatalf("%s: the digest did not move", name)
		}
	}
	row := func(table string, k int64, v string, insert bool) relational.Mutation {
		return relational.Mutation{Table: table, Insert: insert, Tuple: relational.Tuple{relational.Int(k), relational.Str(v)}}
	}
	var a, b dag.NodeID
	record("births", func() {
		a, _ = d.AddNode("A", attr(1))
		b, _ = d.AddNode("B", attr(1))
		d.AddEdge(d.Root(), a)
		d.AddEdge(a, b)
		d.AddEdge(d.Root(), b)
	}, row("r", 1, "x", true), row("s", 1, "x", true))
	record("edge removed", func() { d.RemoveEdge(a, b) })
	record("edge back", func() { d.AddEdge(a, b) })
	record("death", func() { d.RemoveNode(b) }, row("r", 1, "x", false))
	record("resurrection", func() {
		if id, created := d.AddNode("B", attr(1)); !created || id != b {
			t.Fatalf("resurrection gave %d, %v", id, created)
		}
		d.AddEdge(a, b)
	}, row("r", 1, "y", true))
	record("nothing", func() {})
}

// TestKeyedBySkolemKeyNotNodeID: the same view built in another order — other
// ids for the same (type, attribute) nodes, dead identities in between — has
// the same digest; a view that differs in one edge's direction, one attribute
// or one row's table does not.
func TestKeyedBySkolemKeyNotNodeID(t *testing.T) {
	build := func(order []int64, extraDead bool) *dag.DAG {
		d := dag.New("root")
		if extraDead {
			dead, _ := d.AddNode("A", attr(99))
			d.RemoveNode(dead)
		}
		ids := map[int64]dag.NodeID{}
		for _, k := range order {
			ids[k], _ = d.AddNode("A", attr(k))
		}
		d.AddEdge(d.Root(), ids[1])
		d.AddEdge(ids[1], ids[2])
		d.AddEdge(ids[1], ids[3])
		d.AddEdge(ids[2], ids[3])
		return d
	}
	db := testDB(t)
	db.Insert("r", relational.Tuple{relational.Int(1), relational.Str("x")})
	want := Of(build([]int64{1, 2, 3}, false), db)
	if got := Of(build([]int64{3, 1, 2}, true), db); got != want {
		t.Errorf("renumbered view: digest %v, want %v", got, want)
	}

	reversed := build([]int64{1, 2, 3}, false)
	a2, _ := reversed.Lookup("A", attr(2))
	a3, _ := reversed.Lookup("A", attr(3))
	reversed.RemoveEdge(a2, a3)
	reversed.AddEdge(a3, a2)
	if Of(reversed, db) == want {
		t.Error("reversing an edge left the digest unchanged")
	}
	other := testDB(t)
	other.Insert("s", relational.Tuple{relational.Int(1), relational.Str("x")})
	if Of(build([]int64{1, 2, 3}, false), other) == want {
		t.Error("moving a row to another table left the digest unchanged")
	}
}

func TestWireFormAndCompare(t *testing.T) {
	s := Sum{A: 0x0102030405060708, B: 0xa1a2a3a4a5a6a7a8}
	wire := s.Append([]byte{0xee})
	if len(wire) != 1+Size || Decode(wire[1:]) != s {
		t.Fatalf("wire form %x does not round-trip %v", wire, s)
	}
	if got := s.String(); got != "0102030405060708a1a2a3a4a5a6a7a8" {
		t.Errorf("String() = %s", got)
	}
	if (Sum{}).String() != "none" {
		t.Errorf("zero digest renders as %s", Sum{})
	}
	if err := Compare(s, s); err != nil {
		t.Errorf("equal digests: %v", err)
	}
	if err := Compare(Sum{}, s); !errors.As(err, new(*MismatchError)) {
		t.Errorf("a zero stamp: %v, want a MismatchError", err)
	}
	var mm *MismatchError
	if err := Compare(s, Sum{A: 1}); !errors.As(err, &mm) || mm.Want != s || mm.Got != (Sum{A: 1}) {
		t.Errorf("unequal digests: %v, want a MismatchError carrying both", err)
	}
}
