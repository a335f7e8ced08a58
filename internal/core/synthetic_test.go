package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"rxview/internal/dag"
	"rxview/internal/relational"
	"rxview/internal/testkit"
	"rxview/internal/update"
	"rxview/internal/workload"
	"rxview/internal/xpath"
)

func openSynthetic(t testing.TB, nc int, seed int64) (*workload.Synthetic, *System) {
	t.Helper()
	syn, err := workload.NewSynthetic(workload.SyntheticConfig{NC: nc, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(syn.ATG, syn.DB, Options{ForceSideEffects: true})
	if err != nil {
		t.Fatal(err)
	}
	return syn, s
}

func TestSyntheticPublishAndStats(t *testing.T) {
	_, s := openSynthetic(t, 240, 1)
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Nodes == 0 || st.Edges == 0 {
		t.Fatalf("stats = %+v", st)
	}
	// The view is recursive and shares subtrees: the unfolded tree must be
	// strictly larger than the DAG (Fig.10(b)'s compression).
	if st.TreeSize <= float64(st.Nodes) {
		t.Errorf("no compression: tree %.0f vs %d nodes", st.TreeSize, st.Nodes)
	}
	if st.SharedNodes == 0 {
		t.Error("no shared subtrees generated")
	}
}

func TestSyntheticSharingNearTarget(t *testing.T) {
	syn, s := openSynthetic(t, 1200, 2)
	// Count shared C instances (the paper reports 31.4% for its dataset).
	shared, total := 0, 0
	for _, id := range s.DAG.NodesOfType("C") {
		total++
		if len(s.DAG.Parents(id)) > 1 {
			shared++
		}
	}
	if total == 0 {
		t.Fatal("no C nodes")
	}
	frac := float64(shared) / float64(total)
	if frac < 0.10 || frac > 0.60 {
		t.Errorf("shared C fraction = %.2f, want near the paper's 0.31 (config %f)",
			frac, syn.Config.ShareFrac)
	}
}

func TestSyntheticWorkloadsEndToEnd(t *testing.T) {
	for _, class := range []workload.Class{workload.W1, workload.W2, workload.W3} {
		class := class
		t.Run("delete-"+class.String(), func(t *testing.T) {
			syn, s := openSynthetic(t, 180, 3)
			ops := syn.DeleteWorkload(class, 3, 17)
			if len(ops) == 0 {
				t.Fatal("no ops generated")
			}
			applied := 0
			for _, op := range ops {
				rep, err := s.Execute(op.Stmt)
				if err != nil {
					t.Fatalf("%s: %v", op.Stmt, err)
				}
				if rep.Applied {
					applied++
				}
				if err := s.CheckConsistency(); err != nil {
					t.Fatalf("%s: %v", op.Stmt, err)
				}
			}
			if applied == 0 {
				t.Error("no op applied")
			}
		})
		t.Run("insert-"+class.String(), func(t *testing.T) {
			syn, s := openSynthetic(t, 180, 4)
			ops := syn.InsertWorkload(class, 3, 23)
			if len(ops) == 0 {
				t.Fatal("no ops generated")
			}
			applied := 0
			for _, op := range ops {
				rep, err := s.Execute(op.Stmt)
				if err != nil {
					t.Fatalf("%s: %v", op.Stmt, err)
				}
				if rep.Applied {
					applied++
				}
				if err := s.CheckConsistency(); err != nil {
					t.Fatalf("%s: %v", op.Stmt, err)
				}
			}
			if applied == 0 {
				t.Error("no op applied")
			}
		})
	}
}

func TestSyntheticMixedRandomSequence(t *testing.T) {
	// Interleave inserts and deletes; the invariant must hold throughout.
	syn, s := openSynthetic(t, 150, 5)
	dels := syn.DeleteWorkload(workload.W2, 4, 31)
	inss := syn.InsertWorkload(workload.W1, 4, 37)
	for i := 0; i < 4; i++ {
		for _, op := range []workload.Op{inss[i], dels[i]} {
			if _, err := s.Execute(op.Stmt); err != nil {
				t.Fatalf("%s: %v", op.Stmt, err)
			}
			if err := s.CheckConsistency(); err != nil {
				t.Fatalf("after %s: %v", op.Stmt, err)
			}
		}
	}
}

// evalShapes generates the differential corpus over the synthetic view: the
// benchmark's five shapes, the W1/W2/W3 classes' paths, conjunctions,
// negations, nested child filters, wildcards, trailing //, a non-canonical
// numeral, and the shapes that fall back to the sweep.
func evalShapes(s *System, syn *workload.Synthetic, rng *rand.Rand) []string {
	cs := s.DAG.NodesOfType("C")
	key := func() int64 { return s.DAG.Attr(cs[rng.Intn(len(cs))])[0].I }
	val := func() string { return s.DAG.Attr(cs[rng.Intn(len(cs))])[1].S }
	root := func() int64 { return syn.Roots[rng.Intn(len(syn.Roots))] }
	return []string{
		fmt.Sprintf(`C[key="%d"]/sub`, root()),
		fmt.Sprintf(`//C[key="%d"]/sub/C`, root()),
		fmt.Sprintf(`//C[key="%d"]`, key()),
		fmt.Sprintf(`//C[val="%s"]/sub`, val()),
		fmt.Sprintf(`//C[val="%s"]`, val()),
		fmt.Sprintf(`//C[val="%s"]//C[key="%d"]`, val(), key()),
		fmt.Sprintf(`C[key="%d"]/sub/C[val="%s"]/sub/C`, root(), val()),
		fmt.Sprintf(`//C[key="%d" and sub/C]`, key()),
		fmt.Sprintf(`//C[not(sub/C) and val="%s"]`, val()),
		fmt.Sprintf(`//C[sub[C[key="%d"]]]/key`, key()),
		fmt.Sprintf(`//C[sub/C/key="%d"][val="%s"]`, key(), val()),
		fmt.Sprintf(`//*[key="%d"]/*/*`, key()),
		fmt.Sprintf(`//C[val="%s"]/sub//`, val()),
		fmt.Sprintf(`//C[key="%d"]/info/item`, key()),
		fmt.Sprintf(`//C[key="00%d"]`, key()),
		fmt.Sprintf(`//C[key="%d" or key="%d"]`, key(), key()),
		fmt.Sprintf(`//C[val="%s" and .//C[key="%d"]]`, val(), key()),
		fmt.Sprintf(`//key[.="%d"]`, key()),
		`//C[sub/C]/sub/C`,
	}
}

// TestEvalRoutesAgreeOnSynthetic is the end-to-end differential: with the
// view's typed text comparison wired in, every corpus path gives the same
// four result fields by the route the evaluator picks and by the sweep — on
// the live DAG and on a sealed snapshot, before and after a W1/W2/W3
// insert+delete mix — and select-only agrees with both on the selection.
func TestEvalRoutesAgreeOnSynthetic(t *testing.T) {
	syn, s := openSynthetic(t, 300, 11)
	rng := rand.New(rand.NewSource(11))
	anchored := 0
	check := func(stage string) {
		t.Helper()
		sn := s.Snapshot()
		for _, ps := range evalShapes(s, syn, rng) {
			p := xpath.MustParse(ps)
			for name, ev := range map[string]*xpath.Evaluator{"live": s.evaluator(), "snapshot": sn.evaluator()} {
				routed, err := ev.Eval(p)
				if err != nil {
					t.Fatalf("%s %s %s: %v", stage, name, ps, err)
				}
				swept, err := ev.EvalSweep(p)
				if err != nil {
					t.Fatalf("%s %s %s: %v", stage, name, ps, err)
				}
				if routed.Route == xpath.RouteAnchored {
					anchored++
				}
				if !reflect.DeepEqual(routed.Selected, swept.Selected) || !reflect.DeepEqual(routed.Edges, swept.Edges) ||
					!reflect.DeepEqual(routed.InsertWitnesses, swept.InsertWitnesses) ||
					!reflect.DeepEqual(routed.DeleteWitnesses, swept.DeleteWitnesses) || routed.Overflow != swept.Overflow {
					t.Errorf("%s %s %s: the %s route and the sweep disagree:\n %+v\n %+v", stage, name, ps, routed.Route, routed, swept)
				}
				for _, sel := range []func(*xpath.Path) (*xpath.Result, error){ev.EvalSelect, ev.EvalSelectSweep} {
					fast, err := sel(p)
					if err != nil {
						t.Fatalf("%s %s %s: %v", stage, name, ps, err)
					}
					if !reflect.DeepEqual(fast.Selected, swept.Selected) {
						t.Errorf("%s %s %s: select-only %v, full %v", stage, name, ps, fast.Selected, swept.Selected)
					}
				}
			}
		}
	}
	check("initial")
	for i, class := range []workload.Class{workload.W1, workload.W2, workload.W3} {
		for _, op := range append(syn.InsertWorkload(class, 3, int64(40+i)), syn.DeleteWorkload(class, 3, int64(50+i))...) {
			if _, err := s.Execute(op.Stmt); err != nil {
				t.Fatalf("%s: %v", op.Stmt, err)
			}
		}
		check("after " + class.String())
	}
	if anchored == 0 {
		t.Fatal("no corpus path took the anchored route")
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestQueryInsideTransactionTakesTheAnchoredRoute: the write path evaluates
// on the live DAG inside an open transaction; reads there see the staged
// writes whichever route answers them, the down route's included.
func TestQueryInsideTransactionTakesTheAnchoredRoute(t *testing.T) {
	syn, s := openSynthetic(t, 200, 12)
	txn, err := s.Begin(true)
	if err != nil {
		t.Fatal(err)
	}
	root, key := syn.Roots[0], syn.NextKey
	op, err := update.ParseStatement(s.ATG, fmt.Sprintf(`insert C(c1=%d, c6="tx") into C[key="%d"]/sub`, key, root))
	if err != nil {
		t.Fatal(err)
	}
	if rep, err := txn.Stage(context.Background(), op); err != nil || !rep.Applied || rep.Route != "anchored" {
		t.Fatalf("stage: %+v, %v", rep, err)
	}
	for ps, selRoute := range map[string]xpath.Route{
		fmt.Sprintf(`//C[key="%d"]`, key):                    xpath.RouteDown,
		`//C[val="tx"]`:                                      xpath.RouteDown,
		fmt.Sprintf(`C[key="%d"]/sub/C[val="tx"]/key`, root): xpath.RouteAnchored,
	} {
		p := xpath.MustParse(ps)
		routed, err := s.Eval(p)
		if err != nil {
			t.Fatal(err)
		}
		swept, err := s.evaluator().EvalSweep(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(routed.Selected) != 1 || !reflect.DeepEqual(routed.Selected, swept.Selected) || !reflect.DeepEqual(routed.Edges, swept.Edges) {
			t.Errorf("%s inside the transaction: %v | %v, sweep %v | %v", ps, routed.Selected, routed.Edges, swept.Selected, swept.Edges)
		}
		fast, err := s.evaluator().EvalSelect(p)
		if err != nil {
			t.Fatal(err)
		}
		fastSwept, err := s.evaluator().EvalSelectSweep(p)
		if err != nil {
			t.Fatal(err)
		}
		if fast.Route != selRoute || !reflect.DeepEqual(fast.Selected, fastSwept.Selected) || !reflect.DeepEqual(fast.Selected, swept.Selected) {
			t.Errorf("%s inside the transaction: select-only %v by the %s route, %v by the sweep", ps, fast.Selected, fast.Route, fastSwept.Selected)
		}
	}
	if err := txn.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got, err := selectPath(s, fmt.Sprintf(`//C[key="%d"]`, key)); err != nil || len(got) != 0 {
		t.Errorf("after rollback: %v, %v", got, err)
	}
}

// TestFreshValuesStayOutsideTheDatabase: a value insert's fresh values are
// outside the active domain (§4.3, case (b)) also where the translator is
// new but the database is not — after Recover, and on a caller's database
// that already holds fresh-shaped values.
func TestFreshValuesStayOutsideTheDatabase(t *testing.T) {
	insertFresh := func(t *testing.T, syn *workload.Synthetic, s *System) {
		t.Helper()
		domain := map[relational.Value]bool{}
		for _, name := range s.DB.Schema.TableNames() {
			s.DB.Rel(name).Scan(func(tup relational.Tuple) bool {
				for _, v := range tup {
					domain[v] = true
				}
				return true
			})
		}
		stmt := syn.InsertWorkload(workload.W1, 1, 1)[0].Stmt
		rep, err := s.Execute(stmt)
		if err != nil || !rep.Applied {
			t.Fatalf("%s: applied=%v err=%v", stmt, rep.Applied, err)
		}
		minted := 0
		for _, m := range rep.DR {
			for _, v := range m.Tuple {
				if !strings.HasPrefix(v.S, "zfresh") && !(v.K == relational.KindInt && v.I > 1<<40) {
					continue
				}
				minted++
				if domain[v] {
					t.Fatalf("%s: the fresh value %s is already in the database", stmt, v)
				}
			}
		}
		if minted == 0 {
			t.Fatalf("%s minted no fresh value: ΔR %v", stmt, rep.DR)
		}
	}
	t.Run("after-recover", func(t *testing.T) {
		syn, s := openSynthetic(t, 200, 1)
		insertFresh(t, syn, s)
		d := testkit.Must(dag.DecodeState(s.DAG.AppendState(nil, nil)))
		r, err := Recover(s.ATG, s.DB.Clone(), d, s.gen, s.digest, nil, s.opts)
		if err != nil {
			t.Fatal(err)
		}
		insertFresh(t, syn, r)
	})
	t.Run("caller-database", func(t *testing.T) {
		syn, err := workload.NewSynthetic(workload.SyntheticConfig{NC: 200, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		// An F row no C row reaches: in the database, not in the view.
		f := syn.DB.Rel("F")
		row := make(relational.Tuple, len(f.Schema.Columns))
		for i, col := range f.Schema.Columns {
			switch {
			case i == f.Schema.Key[0]:
				row[i] = relational.Int(1 << 30)
			case col.Domain != nil:
				row[i] = col.Domain[0]
			case col.Type == relational.KindInt:
				row[i] = relational.Int(1<<40 + 1)
			default:
				row[i] = relational.Str("zfresh1")
			}
		}
		if err := f.Insert(row); err != nil {
			t.Fatal(err)
		}
		s, err := Open(syn.ATG, syn.DB, Options{ForceSideEffects: true})
		if err != nil {
			t.Fatal(err)
		}
		insertFresh(t, syn, s)
	})
}
