package dag

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"rxview/internal/relational"
)

// buildSample constructs a DAG with shared subtrees, a deletion, and a
// resurrection, so the identity table has dead entries and reused ids.
func buildSample(t *testing.T) *DAG {
	t.Helper()
	d := New("db")
	a, _ := d.AddNode("course", relational.Tuple{relational.Str("CS650")})
	b, _ := d.AddNode("course", relational.Tuple{relational.Str("CS550")})
	c, _ := d.AddNode("student", relational.Tuple{relational.Str("S1"), relational.Str("Ann")})
	d.AddEdge(d.Root(), a)
	d.AddEdge(d.Root(), b)
	d.AddEdge(a, c)
	d.AddEdge(b, c) // shared subtree
	d.RemoveEdge(b, c)
	d.RemoveNode(b) // dead identity stays in the table
	// Resurrect b's identity, then kill it again: the table keeps the id.
	id, created := d.AddNode("course", relational.Tuple{relational.Str("CS550")})
	if !created || id != b {
		t.Fatalf("resurrection allocated %d (created=%v), want %d", id, created, b)
	}
	d.RemoveNode(b)
	return d
}

// equalDAGsExact compares two DAGs including identity table, liveness,
// sibling order and the Skolem registry — the bit-for-bit contract replay
// and checkpoint reload must satisfy.
func equalDAGsExact(t *testing.T, a, b *DAG) {
	t.Helper()
	if a.Cap() != b.Cap() || a.Root() != b.Root() || a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("shape mismatch: cap %d/%d root %d/%d nodes %d/%d edges %d/%d",
			a.Cap(), b.Cap(), a.Root(), b.Root(), a.NumNodes(), b.NumNodes(), a.NumEdges(), b.NumEdges())
	}
	for id := NodeID(0); int(id) < a.Cap(); id++ {
		if a.Type(id) != b.Type(id) || !slices.EqualFunc(a.Attr(id), b.Attr(id), relational.Value.Equal) || a.Alive(id) != b.Alive(id) {
			t.Fatalf("node %d: (%s%s alive=%v) vs (%s%s alive=%v)", id,
				a.Type(id), a.Attr(id), a.Alive(id), b.Type(id), b.Attr(id), b.Alive(id))
		}
		if !reflect.DeepEqual(append([]NodeID{}, a.Children(id)...), append([]NodeID{}, b.Children(id)...)) {
			t.Fatalf("node %d children: %v vs %v", id, a.Children(id), b.Children(id))
		}
	}
	// Skolem registry must cover dead identities so resurrection reuses ids.
	for _, id := range []NodeID{0, 1, 2, 3} {
		if int(id) >= a.Cap() {
			break
		}
		got, ok := b.gen[string(appendGenKey(nil, a.Type(id), a.Attr(id)))]
		if !ok || got != id {
			t.Fatalf("gen registry: id %d maps to %d (ok=%v)", id, got, ok)
		}
	}
}

func TestStateCodecRoundTrip(t *testing.T) {
	d := buildSample(t)
	got, err := DecodeState(d.AppendState(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	equalDAGsExact(t, d, got)

	// The reloaded DAG must behave identically going forward: resurrecting
	// the dead identity reuses its id.
	id, created := got.AddNode("course", relational.Tuple{relational.Str("CS550")})
	if !created || id != 2 {
		t.Fatalf("post-reload resurrection: id %d created %v", id, created)
	}
}

// TestStateLenMatchesAppendState holds the measure to the encoder after every
// kind of step: an empty DAG, multi-field and NULL attributes, node deaths
// (the dead ids stay in the table), a resurrection, and counts, ids and names
// past one varint byte.
func TestStateLenMatchesAppendState(t *testing.T) {
	d := New("db")
	check := func(when string) {
		t.Helper()
		if got, want := d.StateLen(), len(d.AppendState(nil, nil)); got != want || got != stateLenWalk(d) {
			t.Fatalf("%s: StateLen %d, AppendState writes %d bytes, the walk measures %d", when, got, want, stateLenWalk(d))
		}
	}
	check("empty")
	a, _ := d.AddNode("course", relational.Tuple{relational.Str("CS650"), relational.Int(3), relational.Null()})
	b, _ := d.AddNode("student", relational.Tuple{relational.Null()})
	d.AddEdge(d.Root(), a)
	d.AddEdge(a, b)
	check("multi-field and NULL attributes")
	d.RemoveEdge(a, b)
	d.RemoveNode(b)
	check("a node death")
	if id, created := d.AddNode("student", relational.Tuple{relational.Null()}); !created || id != b {
		t.Fatalf("resurrection allocated %d (created=%v), want %d", id, created, b)
	}
	d.AddEdge(d.Root(), b)
	check("a resurrection")
	long := strings.Repeat("t", 200)
	for i := range 300 {
		c, _ := d.AddNode(long, relational.Tuple{relational.Int(int64(i))})
		d.AddEdge(a, c)
		if i%3 == 0 {
			d.RemoveEdge(a, c)
			d.RemoveNode(c)
		}
	}
	check("300 children, a third dead, a 200-byte type name")
}

// stateLenWalk measures AppendState's length the way StateLen did before
// the mutators kept it: one pass over the nodes, mirroring AppendState field
// by field. It is StateLen's oracle.
func stateLenWalk(d *DAG) int {
	vlen := relational.UvarintLen
	n := len(d.types)
	size := vlen(uint64(n)) + vlen(uint64(d.root))
	for id := 0; id < n; id++ {
		row := d.children.row(NodeID(id))
		typ := d.Type(NodeID(id))
		size += vlen(uint64(len(typ))) + len(typ) + relational.TupleLen(d.Attr(NodeID(id))) + 1 // + the alive flag
		size += vlen(uint64(len(row)))
		for _, c := range row {
			size += vlen(uint64(c))
		}
	}
	return size
}

// TestStateLenAndRangesAcrossTheJournal runs a seeded sequence of node and
// edge additions and removals, resurrections, transactions that commit, roll
// back (freeing fresh ids) or roll back to a mark, reloads through
// DecodeState, and checkpoints (MarkClean). After every step StateLen is the
// walk's measure (and, outside a transaction, AppendState's length), and
// every id range still called clean appends the bytes it appended at the
// last MarkClean. The identity table grows past several ranges, and a reload
// leaves no range clean.
func TestStateLenAndRangesAcrossTheJournal(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := New("db")
	var marked [][]byte // per range, its bytes at the last MarkClean
	var ids []NodeID
	marks := []int(nil)
	var freed, resurrected, reloads, cleanChecked int
	check := func(step int, what string) {
		t.Helper()
		if got, want := d.StateLen(), stateLenWalk(d); got != want {
			t.Fatalf("step %d, %s: StateLen %d, the walk measures %d", step, what, got, want)
		}
		if !d.InTxn() {
			if got, want := d.StateLen(), len(d.AppendState(nil, nil)); got != want {
				t.Fatalf("step %d, %s: StateLen %d, AppendState writes %d", step, what, got, want)
			}
		}
		for r := range d.Ranges() {
			if !d.RangeClean(r) {
				continue
			}
			cleanChecked++
			if r >= len(marked) || !bytes.Equal(d.AppendRange(nil, r), marked[r]) {
				t.Fatalf("step %d, %s: range %d is called clean, and its bytes changed since MarkClean", step, what, r)
			}
		}
	}
	for step := 0; step < 6000; step++ {
		var what string
		switch k := rng.Intn(20); {
		case k < 7:
			what = "AddNode"
			typ := []string{"a", "b", strings.Repeat("t", 130)}[rng.Intn(3)]
			id, created := d.AddNode(typ, relational.Tuple{relational.Int(int64(rng.Intn(900))), relational.Str(strings.Repeat("v", rng.Intn(3)))})
			if created && int(id) < len(ids) {
				resurrected++
			}
			if int(id) >= len(ids) {
				ids = append(ids, id)
			}
		case k < 11 && len(ids) > 1:
			what = "AddEdge"
			u, v := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
			if u != v {
				d.AddEdge(u, v)
			}
		case k < 13 && len(ids) > 1:
			what = "RemoveEdge"
			u := ids[rng.Intn(len(ids))]
			if row := d.Children(u); len(row) > 0 {
				d.RemoveEdge(u, row[rng.Intn(len(row))])
			}
		case k < 15 && len(ids) > 1:
			what = "RemoveNode"
			d.RemoveNode(ids[1+rng.Intn(len(ids)-1)])
		case k == 15 && !d.InTxn():
			what = "Begin"
			d.Begin()
			marks = marks[:0]
		case k == 15:
			what = "Mark"
			marks = append(marks, d.Mark())
		case k == 16 && d.InTxn():
			what = "Rollback"
			before := d.Cap()
			d.Rollback()
			freed += before - d.Cap()
			ids = ids[:d.Cap()]
		case k == 17 && d.InTxn() && len(marks) > 0:
			what = "RollbackTo"
			before := d.Cap()
			m := marks[rng.Intn(len(marks))]
			d.RollbackTo(m)
			marks = slices.DeleteFunc(marks, func(x int) bool { return x > m })
			freed += before - d.Cap()
			ids = ids[:d.Cap()]
		case k == 18 && d.InTxn():
			what = "Commit"
			d.Commit()
		case k == 18:
			what = "DecodeState"
			reloaded, err := DecodeState(d.AppendState(nil, nil))
			if err != nil {
				t.Fatal(err)
			}
			equalDAGsExact(t, d, reloaded)
			d = reloaded
			reloads++
			for r := range d.Ranges() {
				if d.RangeClean(r) {
					t.Fatalf("step %d: range %d of a reloaded DAG is clean", step, r)
				}
			}
		case k == 19 && !d.InTxn():
			what = "MarkClean"
			d.MarkClean()
			marked = marked[:0]
			for r := range d.Ranges() {
				marked = append(marked, d.AppendRange(nil, r))
			}
		default:
			continue
		}
		check(step, what)
	}
	if d.Ranges() < 3 || freed == 0 || resurrected == 0 || reloads == 0 || cleanChecked == 0 {
		t.Fatalf("the run missed a case: %d ranges, %d ids freed, %d resurrections, %d reloads, %d clean ranges checked",
			d.Ranges(), freed, resurrected, reloads, cleanChecked)
	}
}

func TestStateCodecTruncated(t *testing.T) {
	full := buildSample(t).AppendState(nil, nil)
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodeState(full[:cut]); err == nil {
			// A shorter prefix can only be valid if the trailing check fails;
			// DecodeState demands exact consumption, so any cut must error.
			t.Fatalf("truncation at %d/%d decoded without error", cut, len(full))
		}
	}
}

func TestDeltaSinceChronological(t *testing.T) {
	d := New("db")
	a, _ := d.AddNode("course", relational.Tuple{relational.Str("CS650")})
	d.AddEdge(d.Root(), a)

	base, err := DecodeState(d.AppendState(nil, nil))
	if err != nil {
		t.Fatal(err)
	}

	d.Begin()
	b, _ := d.AddNode("course", relational.Tuple{relational.Str("CS550")})
	d.AddEdge(d.Root(), b)
	d.AddEdge(a, b)
	d.RemoveEdge(a, b) // delete then...
	d.AddEdge(a, b)    // ...re-add: grouped changes would lose the order
	d.RemoveEdge(d.Root(), a)
	d.RemoveNode(a) // removes (a,b) too, then deadens a
	ops := d.DeltaSince(0)
	d.Commit()

	// Round-trip every op through the wire format.
	var buf []byte
	for _, op := range ops {
		buf = AppendDelta(buf, op)
	}
	var decoded []DeltaOp
	rest := buf
	for len(rest) > 0 {
		var op DeltaOp
		var err error
		op, rest, err = DecodeDelta(rest)
		if err != nil {
			t.Fatal(err)
		}
		decoded = append(decoded, op)
	}
	if len(decoded) != len(ops) {
		t.Fatalf("decoded %d ops, recorded %d", len(decoded), len(ops))
	}

	// Replay onto the pre-transaction state and compare exactly.
	for i, op := range decoded {
		if err := base.ApplyDelta(op); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	equalDAGsExact(t, d, base)
}

func TestDeltaIncludesNodeDeletions(t *testing.T) {
	d := New("db")
	a, _ := d.AddNode("course", relational.Tuple{relational.Str("CS650")})
	d.AddEdge(d.Root(), a)
	d.Begin()
	d.RemoveEdge(d.Root(), a)
	d.RemoveNode(a)
	ops := d.DeltaSince(0)
	d.Commit()
	var dels int
	for _, op := range ops {
		if op.Kind == DeltaNodeDel {
			dels++
		}
	}
	if dels != 1 {
		t.Fatalf("delta records %d node deletions, want 1 (ops: %v)", dels, ops)
	}
}

func TestApplyDeltaDivergence(t *testing.T) {
	d := New("db")
	a, _ := d.AddNode("course", relational.Tuple{relational.Str("CS650")})
	d.AddEdge(d.Root(), a)

	cases := []struct {
		name string
		op   DeltaOp
		want string
	}{
		{"node add existing", DeltaOp{Kind: DeltaNodeAdd, Node: 5, Type: "course", Attr: relational.Tuple{relational.Str("CS650")}}, "already alive"},
		{"node add wrong id", DeltaOp{Kind: DeltaNodeAdd, Node: 7, Type: "course", Attr: relational.Tuple{relational.Str("CS999")}}, "allocated id"},
		{"edge add duplicate", DeltaOp{Kind: DeltaEdgeAdd, Edge: Edge{Parent: d.Root(), Child: a}}, "not addable"},
		{"edge del absent", DeltaOp{Kind: DeltaEdgeDel, Edge: Edge{Parent: a, Child: d.Root()}}, "not present"},
		{"edge del past the end", DeltaOp{Kind: DeltaEdgeDel, Edge: Edge{Parent: NodeID(d.Cap() + 5000)}}, "not present"},
		{"node del dead", DeltaOp{Kind: DeltaNodeDel, Node: 99}, "not alive"},
		{"node del with edges", DeltaOp{Kind: DeltaNodeDel, Node: a}, "incident edges"},
	}
	for _, tc := range cases {
		err := d.ApplyDelta(tc.op)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}
