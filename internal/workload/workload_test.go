package workload

import (
	"slices"
	"strings"
	"testing"

	"rxview/internal/dag"
	"rxview/internal/relational"
	"rxview/internal/testkit"
)

func TestRegistrarFixture(t *testing.T) {
	reg, err := NewRegistrar()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(reg.DTD.ChildTypes("course"), "prereq") || !slices.Contains(reg.DTD.ChildTypes("prereq"), "course") {
		t.Error("registrar DTD must be recursive: course → prereq → course")
	}
	if reg.DB.Rel("course").Len() != 4 {
		t.Errorf("courses = %d", reg.DB.Rel("course").Len())
	}
	d, err := reg.ATG.PublishDAG(reg.DB)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(d.NodesOfType("course")); got != 3 {
		t.Errorf("published courses = %d (EE filtered)", got)
	}
}

func TestSyntheticGeneratorInvariants(t *testing.T) {
	syn := testkit.Must(NewSynthetic(SyntheticConfig{NC: 500, Seed: 9}))
	// |F| = |C|, CU mirrors C, |H| ≈ Fanout · |C| (paper: |H| ≈ 3|C|).
	nc := syn.DB.Rel("C").Len()
	if nc != 500 {
		t.Errorf("|C| = %d", nc)
	}
	if syn.DB.Rel("F").Len() != nc || syn.DB.Rel("CU").Len() != nc {
		t.Error("|F| and |CU| must equal |C|")
	}
	nh := syn.DB.Rel("H").Len()
	if nh < nc || nh > 4*nc {
		t.Errorf("|H| = %d, want ≈ 3·|C|", nh)
	}
	// h1 < h2 invariant (guarantees acyclicity).
	syn.DB.Rel("H").Scan(func(tp relational.Tuple) bool {
		if tp[0].I >= tp[1].I {
			t.Errorf("H tuple violates h1 < h2: %v", tp)
			return false
		}
		return true
	})
	// Roots are exactly the c5=0 rows.
	roots := 0
	syn.DB.Rel("C").Scan(func(tp relational.Tuple) bool {
		if tp[4].I == 0 {
			roots++
		}
		return true
	})
	if roots != len(syn.Roots) {
		t.Errorf("roots: %d flagged vs %d recorded", roots, len(syn.Roots))
	}
	if syn.NextKey != int64(nc)+1 {
		t.Errorf("NextKey = %d", syn.NextKey)
	}
}

func TestSyntheticPublishes(t *testing.T) {
	syn := testkit.Must(NewSynthetic(SyntheticConfig{NC: 200, Seed: 3}))
	d, err := syn.ATG.PublishDAG(syn.DB)
	if err != nil {
		t.Fatal(err)
	}
	if err := testkit.CheckAcyclic(d); err != nil {
		t.Fatal(err)
	}
	if len(d.Children(d.Root())) != len(syn.Roots) {
		t.Errorf("top-level C count = %d, want %d", len(d.Children(d.Root())), len(syn.Roots))
	}
	if dag.SharedNodeCount(d) == 0 {
		t.Error("expected shared subtrees")
	}
}

func TestSyntheticConfigValidation(t *testing.T) {
	if _, err := NewSynthetic(SyntheticConfig{NC: 2, Levels: 6}); err == nil {
		t.Error("NC < Levels accepted")
	}
	cfg := SyntheticConfig{}.withDefaults()
	if cfg.Levels == 0 || cfg.Fanout == 0 || cfg.ShareFrac == 0 || cfg.FilterSel == 0 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
}

func TestDeleteWorkloadShapes(t *testing.T) {
	syn := testkit.Must(NewSynthetic(SyntheticConfig{NC: 300, Seed: 5}))
	w1 := syn.DeleteWorkload(W1, 5, 1)
	if len(w1) == 0 {
		t.Fatal("empty W1")
	}
	for _, op := range w1 {
		if !op.Delete || !strings.HasPrefix(op.Stmt, "delete //C[val=") {
			t.Errorf("W1 op = %q", op.Stmt)
		}
	}
	w2 := syn.DeleteWorkload(W2, 5, 1)
	for _, op := range w2 {
		if strings.Contains(op.Stmt, "//") {
			t.Errorf("W2 op must use child axis only: %q", op.Stmt)
		}
		if !strings.Contains(op.Stmt, `C[key=`) {
			t.Errorf("W2 op = %q", op.Stmt)
		}
	}
	w3 := syn.DeleteWorkload(W3, 5, 1)
	for _, op := range w3 {
		if !strings.Contains(op.Stmt, "info/item") && !strings.Contains(op.Stmt, "sub/C") {
			t.Errorf("W3 op lacks structural filter: %q", op.Stmt)
		}
	}
}

func TestInsertWorkloadShapes(t *testing.T) {
	syn := testkit.Must(NewSynthetic(SyntheticConfig{NC: 300, Seed: 6}))
	before := syn.NextKey
	ops := syn.InsertWorkload(W1, 4, 2)
	if len(ops) != 4 {
		t.Fatalf("ops = %d", len(ops))
	}
	if syn.NextKey != before+4 {
		t.Errorf("NextKey advanced to %d, want %d", syn.NextKey, before+4)
	}
	for _, op := range ops {
		if op.Delete || !strings.HasPrefix(op.Stmt, "insert C(") || !strings.HasSuffix(op.Stmt, "/sub") {
			t.Errorf("W1 insert op = %q", op.Stmt)
		}
	}
	ops = syn.InsertWorkload(W3, 2, 2)
	for _, op := range ops {
		if !strings.Contains(op.Stmt, "and") {
			t.Errorf("W3 insert op lacks structural filter: %q", op.Stmt)
		}
	}
}

func TestClassString(t *testing.T) {
	if W1.String() != "W1" || W2.String() != "W2" || W3.String() != "W3" {
		t.Error("Class strings")
	}
	if Class(9).String() == "" {
		t.Error("unknown class string")
	}
}
