package core

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"rxview/internal/dag"
	"rxview/internal/update"
	"rxview/internal/workload"
	"rxview/internal/xpath"
)

// TestTextSeedsMatchTheScan pins the live view's seed function to the scan
// it replaces: for every element type, and for every text present plus
// strings that only look like another kind's rendering, the registry's
// seeds are the scan's (IDsOfType, Alive, TextEquals) as a set, or the
// function says it cannot tell. Checked on the published view, after a
// W1/W2/W3 insert+delete mix, inside an open transaction and after its
// rollback. The lookup is exact only because every live node's attribute
// has its type's declared arity; that is asserted too.
func TestTextSeedsMatchTheScan(t *testing.T) {
	syn, s := openSynthetic(t, 300, 13)
	probes := []string{"007", "-0", " 7", "NULL", "true", ""}
	answered := map[string]int{}
	check := func(stage string) {
		t.Helper()
		d := s.DAG
		for _, id := range d.Nodes() {
			if got, want := len(d.Attr(id)), len(s.ATG.Attrs[d.Type(id)]); got != want {
				t.Fatalf("%s: %s node %d has %d attribute fields, its type declares %d", stage, d.Type(id), id, got, want)
			}
		}
		text, textEq := s.ATG.Text(d), s.ATG.TextEquals(d)
		for _, typ := range s.ATG.DTD.Types() {
			texts := slices.Clone(probes)
			for _, id := range d.IDsOfType(typ) {
				if txt, ok := text(id); ok && d.Alive(id) {
					texts = append(texts, txt)
				}
			}
			slices.Sort(texts)
			for _, str := range slices.Compact(texts) {
				got, ok := s.seeds(typ, str, nil)
				if !ok {
					continue
				}
				answered[typ]++
				eq := textEq(typ, str)
				var want []dag.NodeID
				for _, id := range d.IDsOfType(typ) {
					if d.Alive(id) && eq(id) {
						want = append(want, id)
					}
				}
				slices.Sort(want)
				slices.Sort(got)
				if !slices.Equal(got, slices.Compact(want)) {
					t.Errorf("%s: seeds(%s, %q) = %v, the scan finds %v", stage, typ, str, got, want)
				}
			}
		}
	}

	check("published")
	for i, class := range []workload.Class{workload.W1, workload.W2, workload.W3} {
		for _, op := range append(syn.InsertWorkload(class, 3, int64(60+i)), syn.DeleteWorkload(class, 3, int64(70+i))...) {
			if _, err := s.Execute(op.Stmt); err != nil {
				t.Fatalf("%s: %v", op.Stmt, err)
			}
		}
		check("after " + class.String())
	}

	txn, err := s.Begin(true)
	if err != nil {
		t.Fatal(err)
	}
	cs := s.DAG.NodesOfType("C")
	stmts := []string{
		fmt.Sprintf(`insert C(c1=%d, c6="tx") into C[key="%d"]/sub`, syn.NextKey, syn.Roots[0]),
		fmt.Sprintf(`delete //C[key="%d"]`, s.DAG.Attr(cs[len(cs)/2])[0].I),
	}
	for _, stmt := range stmts {
		op, err := update.ParseStatement(s.ATG, stmt)
		if err != nil {
			t.Fatal(err)
		}
		if rep, err := txn.Stage(context.Background(), op); err != nil || !rep.Applied {
			t.Fatalf("stage %s: %+v, %v", stmt, rep, err)
		}
	}
	check("inside a transaction")
	if err := txn.Rollback(); err != nil {
		t.Fatal(err)
	}
	check("after the rollback")

	// key and val carry their text as their one field, so the registry
	// answers for them; item's text is one of two fields, so it scans.
	for _, typ := range []string{"key", "val"} {
		if answered[typ] == 0 {
			t.Errorf("the registry never answered for %s", typ)
		}
	}
	if answered["item"] != 0 {
		t.Errorf("the registry answered %d times for item, whose attribute has two fields", answered["item"])
	}
}

// BenchmarkEvalKeyPath prices the seed lookup outside the harness: Eval of
// the write-heavy workload's key-anchored shapes at |C| = 5000, by the live
// evaluator (seeds from gen_id) and by a snapshot's (seeds from a scan of
// the type's list).
func BenchmarkEvalKeyPath(b *testing.B) {
	syn, s := openSynthetic(b, 5000, 7)
	cs := s.DAG.NodesOfType("C")
	sn := s.Snapshot()
	for _, shape := range []struct{ name, path string }{
		{"desc-key", fmt.Sprintf(`//C[key="%d"]`, s.DAG.Attr(cs[len(cs)/2])[0].I)},
		{"root-key-sub", fmt.Sprintf(`C[key="%d"]/sub`, syn.Roots[0])},
	} {
		p := xpath.MustParse(shape.path)
		for _, view := range []struct {
			name string
			ev   *xpath.Evaluator
		}{{"live", s.evaluator()}, {"snapshot", sn.evaluator()}} {
			b.Run(shape.name+"/"+view.name, func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					if _, err := view.ev.Eval(p); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
