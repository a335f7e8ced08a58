package dag

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"rxview/internal/relational"
)

// TestSealCarriesItsDelta: a Version carries the ops committed since the
// seal before it — the journal's own array, not a copy — and names that
// seal; a rollback adds nothing and loses nothing; a mutation outside a
// journal, a decode, a failed replay and a seal in between each leave the
// next version without a ΔV, and the one after it has one again.
func TestSealCarriesItsDelta(t *testing.T) {
	d := New("db")
	v0 := d.Seal()
	if v0.deltaKnown {
		t.Fatal("New built the root outside a journal, yet the first seal knows its ΔV")
	}
	delta := func(v, prev *Version) [][]DeltaOp {
		t.Helper()
		ops, ok := v.DeltaFrom(prev)
		if !ok {
			t.Fatalf("version %d does not know its ΔV from %d", v.id, prev.id)
		}
		return ops
	}

	d.Begin()
	c, _ := d.AddNode("C", relational.Tuple{relational.Int(1)})
	d.AddEdge(d.Root(), c)
	journal := d.journal.ops
	d.Commit()
	d.Begin()
	d.AddNode("C", relational.Tuple{relational.Int(2)})
	d.Rollback()
	v1 := d.Seal()
	if ops := delta(v1, v0); len(ops) != 1 || &ops[0][0] != &journal[0] {
		t.Fatalf("ΔV = %v, want the committed journal's own ops", ops)
	}
	v2 := d.Seal()
	if ops := delta(v2, v1); len(ops) != 0 {
		t.Fatalf("ΔV over no change = %v", ops)
	}

	d.Begin()
	c3, _ := d.AddNode("C", relational.Tuple{relational.Int(3)})
	d.AddEdge(c, c3)
	journal = d.journal.ops
	d.Commit()
	d.Begin()
	d.AddNode("C", relational.Tuple{relational.Int(4)})
	d.Rollback()
	v3 := d.Seal()
	ops := delta(v3, v2)
	if len(ops) != 1 || &ops[0][0] != &journal[0] || fmt.Sprint(ops[0]) != "[+node 2 C(3) +edge (1→2)]" {
		t.Fatalf("ΔV = %v, want the committed journal's own ops", ops)
	}
	if _, ok := v3.DeltaFrom(v1); ok {
		t.Fatal("a ΔV from a version two seals back")
	}

	d.AddEdge(d.Root(), c3) // outside a journal
	v4 := d.Seal()
	if _, ok := v4.DeltaFrom(v3); ok {
		t.Fatal("a mutation outside a journal left the ΔV known")
	}
	d.Begin()
	d.RemoveEdge(d.Root(), c3)
	d.Commit()
	v5 := d.Seal()
	if ops := delta(v5, v4); fmt.Sprint(ops) != "[[-edge (0→2)]]" {
		t.Fatalf("ΔV after a lost one = %v", ops)
	}

	// A replica decoded from v5's state replays the next commit's ops.
	replica, err := DecodeState(d.AppendState(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	r0 := replica.Seal()
	if _, ok := r0.DeltaFrom(v5); ok {
		t.Fatal("a version of another DAG names v5 its predecessor")
	}
	if _, ok := r0.DeltaFrom(nil); ok {
		t.Fatal("a decoded state knows its ΔV")
	}
	d.Begin()
	d.RemoveNode(c3)
	rec := d.DeltaSince(0)
	d.Commit()
	if err := replica.Replay(rec); err != nil {
		t.Fatal(err)
	}
	r1 := replica.Seal()
	if ops := delta(r1, r0); len(ops) != 1 || &ops[0][0] != &rec[0] {
		t.Fatalf("replayed ΔV = %v, want the record's own ops", ops)
	}
	if err := replica.Replay(rec); err == nil {
		t.Fatal("replaying a record twice succeeded")
	}
	if _, ok := replica.Seal().DeltaFrom(r1); ok {
		t.Fatal("a failed replay left the ΔV known")
	}

	// More than maxDelta ops lose it too.
	vb := d.Seal()
	d.Begin()
	for i := 0; i <= maxDelta; i++ {
		d.AddNode("D", relational.Tuple{relational.Int(int64(i))})
	}
	d.Commit()
	if len(d.delta) != 0 {
		t.Fatalf("%d ops kept past maxDelta", d.deltaLen)
	}
	v6 := d.Seal()
	if _, ok := v6.DeltaFrom(vb); ok {
		t.Fatal("an oversized ΔV is known")
	}
	d.Begin()
	d.AddNode("D", relational.Tuple{relational.Int(-1)})
	d.Commit()
	if ops, ok := d.Seal().DeltaFrom(v6); !ok || len(ops) != 1 {
		t.Fatalf("ΔV after an oversized one = %v, %v", ops, ok)
	}
}

// TestIdentityTableIsCompact: types are codes into one name table and
// attribute values sit in one flat array cut by offsets, for the live DAG, a
// decoded one and a sealed version alike; a sealed version's values stay put
// while the writer appends past them.
func TestIdentityTableIsCompact(t *testing.T) {
	d := New("db")
	for i := 0; i < 40; i++ {
		typ := []string{"C", "key", "val"}[i%3]
		id, _ := d.AddNode(typ, relational.Tuple{relational.Int(int64(i)), relational.Str(fmt.Sprint("s", i))})
		d.AddEdge(d.Root(), id)
	}
	v := d.Seal()
	want := versionRows(v)
	for i := 0; i < 400; i++ {
		d.AddNode("D", relational.Tuple{relational.Int(int64(i))})
	}
	if got := versionRows(v); got != want {
		t.Fatalf("a sealed version's identities moved:\n%s\nwas\n%s", got, want)
	}
	if len(d.names) != 5 || len(d.vals) != 2*40+400 || len(d.offs) != d.Cap()+1 {
		t.Fatalf("names %v, %d values, %d offsets for %d nodes", d.names, len(d.vals), len(d.offs), d.Cap())
	}
	back, err := DecodeState(d.AppendState(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if versionRows(back) != versionRows(d) || len(back.vals) != len(d.vals) || cap(back.vals) != len(back.vals) {
		t.Fatalf("decoded identity table differs, or holds spare capacity (%d of %d)", cap(back.vals), len(back.vals))
	}
	if a := back.Attr(3); cap(a) != len(a) {
		t.Fatalf("Attr leaves room to append into the next node's values: len %d cap %d", len(a), cap(a))
	}
}

func versionRows(d Reader) string {
	var b strings.Builder
	for id := 0; id < d.Cap(); id++ {
		fmt.Fprintf(&b, "%d %s%s\n", id, d.Type(NodeID(id)), d.Attr(NodeID(id)))
	}
	return b.String()
}

// TestDecodeStateRefusesTooManyTypes: element types are uint16 codes, so a
// state naming more than maxTypes of them is refused, not wrapped around.
func TestDecodeStateRefusesTooManyTypes(t *testing.T) {
	if _, err := DecodeState(manyTypesState(maxTypes)); err != nil {
		t.Fatalf("%d types: %v", maxTypes, err)
	}
	_, err := DecodeState(manyTypesState(maxTypes + 1))
	if err == nil || !strings.Contains(err.Error(), "element types") {
		t.Fatalf("%d types: err = %v", maxTypes+1, err)
	}
}

// manyTypesState is an encoded state of n nodes, each of its own element
// type and with no attribute, the root alive and the rest dead.
func manyTypesState(n int) []byte {
	b := binary.AppendUvarint(nil, uint64(n))
	b = binary.AppendUvarint(b, 0)
	for i := 0; i < n; i++ {
		typ := fmt.Sprint("t", i)
		b = binary.AppendUvarint(b, uint64(len(typ)))
		b = append(b, typ...)
		alive := byte(0)
		if i == 0 {
			alive = 1
		}
		b = append(b, 0, alive) // the empty tuple, the alive flag
	}
	return append(b, make([]byte, n)...) // no children
}
