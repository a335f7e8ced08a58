package dag_test

import (
	"fmt"
	"testing"

	"rxview/internal/core"
	"rxview/internal/dag"
	"rxview/internal/relational"
	"rxview/internal/update"
	"rxview/internal/workload"
	"rxview/internal/xpath"
)

// TestServedValueWriteCopiesLittle bounds what a served write copies: between
// two seals of the §5 view at |C|=5000, a value-selected insert
// //C[val="v"]/sub under tens of targets and the delete //C[key="k"] of its
// key write at most 64 KB of the DAG's children, parents and alive chunks.
// Every row those updates touch sits in a chunk the writer copies after the
// seal, so the bound holds the chunk to its few hundred bytes; 256-slot
// chunks wrote ≈ 290 KB here.
func TestServedValueWriteCopiesLittle(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a |C|=5000 view")
	}
	const nc, bound = 5000, 64 << 10
	syn, err := workload.NewSynthetic(workload.SyntheticConfig{NC: nc, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.Open(syn.ATG, syn.DB, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	card, tried := nc/50, 0
	for i := 0; i < card && tried < 12; i++ {
		v := fmt.Sprintf("v%d", card/5+i)
		if sel, err := s.Select(xpath.MustParse(fmt.Sprintf(`//C[val="%s"]`, v))); err != nil {
			t.Fatal(err)
		} else if len(sel.Selected) == 0 {
			continue
		}
		tried++
		key := syn.NextKey
		syn.NextKey++
		before := s.Snapshot().DAG().(*dag.Version)
		rep, err := s.Apply(&update.Op{Kind: update.OpInsert, Path: xpath.MustParse(fmt.Sprintf(`//C[val="%s"]/sub`, v)),
			Type: "C", Attr: relational.Tuple{relational.Int(key), relational.Str("w")}})
		if err != nil || !rep.Applied {
			t.Fatalf("insert under %s: applied %v: %v", v, rep != nil && rep.Applied, err)
		}
		targets := rep.RP
		rep, err = s.Apply(&update.Op{Kind: update.OpDelete, Path: xpath.MustParse(fmt.Sprintf(`//C[key="%d"]`, key))})
		if err != nil || !rep.Applied {
			t.Fatalf("delete of %d: applied %v: %v", key, rep != nil && rep.Applied, err)
		}
		n := dag.ChunkBytesWritten(before, s.Snapshot().DAG().(*dag.Version))
		if n > bound {
			t.Errorf("%s, %d targets: %d bytes of chunks written, want ≤ %d", v, targets, n, bound)
		}
		t.Logf("%s, %d targets: %d bytes of chunks written", v, targets, n)
	}
	if tried == 0 {
		t.Fatal("no value selects a C node")
	}
}
