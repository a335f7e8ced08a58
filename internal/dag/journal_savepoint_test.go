package dag

import (
	"fmt"
	"math/rand"
	"testing"

	"rxview/internal/relational"
)

// structureOf renders the full live structure — node identities with sibling
// order — so two states can be compared bit-for-bit.
func structureOf(d *DAG) string {
	out := ""
	for _, u := range d.Nodes() {
		out += fmt.Sprintf("%s(%s):", d.Type(u), d.Attr(u))
		for _, v := range d.Children(u) {
			out += fmt.Sprintf(" %s(%s)", d.Type(v), d.Attr(v))
		}
		out += "\n"
	}
	return out
}

func TestSavepointRollbackToRestoresMidpoint(t *testing.T) {
	d, c1, c2, sh := chainDAG(t)
	d.Begin()
	x, _ := d.AddNode("C", relational.Tuple{relational.Int(10)})
	d.AddEdge(c1, x)
	mid := structureOf(d)

	mark := d.Mark()
	y, _ := d.AddNode("C", relational.Tuple{relational.Int(11)})
	d.AddEdge(x, y)
	d.RemoveEdge(c2, sh)

	ops := d.DeltaSince(mark)
	if len(ops) != 3 || ops[0].Kind != DeltaNodeAdd || ops[0].Node != y {
		t.Fatalf("DeltaSince(mark) = %v, want +node %d first of three", ops, y)
	}
	if n := countKinds(ops); n[DeltaEdgeAdd] != 1 || n[DeltaEdgeDel] != 1 {
		t.Fatalf("DeltaSince(mark) = %v, want one edge add and one edge del", ops)
	}

	d.RollbackTo(mark)
	if got := structureOf(d); got != mid {
		t.Fatalf("RollbackTo(mark) state:\n%s\nwant midpoint:\n%s", got, mid)
	}
	if d.Mark() != mark {
		t.Fatalf("journal not truncated to mark: %d != %d", d.Mark(), mark)
	}
	// The op before the mark is still undoable by the full Rollback.
	d.Rollback()
	if d.Alive(x) || d.HasEdge(c1, x) {
		t.Fatal("full Rollback after RollbackTo did not undo the pre-mark op")
	}
}

func TestSavepointRandomizedInterleavings(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		d := New("db")
		var ids []NodeID
		for i := 0; i < 8; i++ {
			id, _ := d.AddNode("C", relational.Tuple{relational.Int(int64(i))})
			ids = append(ids, id)
			d.AddEdge(d.Root(), id)
		}
		base := structureOf(d)
		replica, err := DecodeState(d.AppendState(nil, nil))
		if err != nil {
			t.Fatal(err)
		}
		d.Begin()
		var marks []int
		var states []string
		for step := 0; step < 12; step++ {
			if rng.Intn(3) == 0 {
				marks = append(marks, d.Mark())
				states = append(states, structureOf(d))
			}
			switch rng.Intn(3) {
			case 0:
				id, _ := d.AddNode("C", relational.Tuple{relational.Int(int64(100 + trial*20 + step))})
				d.AddEdge(ids[rng.Intn(len(ids))], id)
			case 1:
				u := ids[rng.Intn(len(ids))]
				if cs := d.Children(u); len(cs) > 0 {
					d.RemoveEdge(u, cs[rng.Intn(len(cs))])
				}
			case 2:
				d.AddEdge(ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))])
			}
		}
		// The ops undo unwinds are the ops replay applies: replayed onto the
		// pre-Begin state, the stream passes through every marked state and
		// ends at d.
		ops := d.DeltaSince(0)
		for i, at := 0, 0; at <= len(ops); at++ {
			for ; i < len(marks) && marks[i] == at; i++ {
				if got := structureOf(replica); got != states[i] {
					t.Fatalf("trial %d: replayed prefix at mark %d diverged:\n%s\nwant:\n%s", trial, i, got, states[i])
				}
			}
			if at < len(ops) {
				if err := replica.ApplyDelta(ops[at]); err != nil {
					t.Fatalf("trial %d: replay op %d (%s): %v", trial, at, ops[at], err)
				}
			}
		}
		equalDAGsExact(t, d, replica)

		// Unwind savepoints newest-first; each must restore its recorded state.
		for i := len(marks) - 1; i >= 0; i-- {
			d.RollbackTo(marks[i])
			if got := structureOf(d); got != states[i] {
				t.Fatalf("trial %d: RollbackTo(mark %d) diverged:\n%s\nwant:\n%s", trial, i, got, states[i])
			}
		}
		d.Rollback()
		if got := structureOf(d); got != base {
			t.Fatalf("trial %d: final Rollback diverged from base", trial)
		}
	}
}
