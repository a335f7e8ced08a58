package server

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"rxview"
)

// carryFixture is a view, the updates a FuzzMemoCarry script draws its
// commits from, and the paths it queries between them.
type carryFixture struct {
	name    string
	open    func(t *testing.T) *rxview.View
	updates []rxview.Update
	paths   []string
}

func carryFixtures(tb testing.TB) []carryFixture {
	tb.Helper()
	syn, err := rxview.NewSynthetic(rxview.SyntheticConfig{NC: 200, Seed: 5})
	if err != nil {
		tb.Fatal(err)
	}
	r, k := syn.Roots(), syn.FreshKeys(2)
	if len(r) < 2 {
		tb.Fatalf("the synthetic view has %d roots, want 2", len(r))
	}
	under := func(root int64) string { return fmt.Sprintf(`//C[key="%d"]/sub`, root) }
	return []carryFixture{
		{
			name: "registrar",
			open: func(t *testing.T) *rxview.View {
				atg, db, err := rxview.NewRegistrar()
				if err != nil {
					t.Fatal(err)
				}
				v, err := rxview.Open(atg, db, rxview.WithForceSideEffects())
				if err != nil {
					t.Fatal(err)
				}
				return v
			},
			updates: []rxview.Update{
				rxview.Insert(`//course[cno="CS650"]/takenBy`, "student", rxview.Str("SQ1"), rxview.Str("A")),
				rxview.Insert(`//course[cno="CS320"]/takenBy`, "student", rxview.Str("SQ1"), rxview.Str("A")),
				rxview.Delete(`//student[ssn="SQ1"]`),
				rxview.Insert(`.`, "course", rxview.Str("CS9"), rxview.Str("T")),
				rxview.Insert(`//course[cno="CS650"]/prereq`, "course", rxview.Str("CS9"), rxview.Str("T")),
				rxview.Delete(`//course[cno="CS9"]`),
				rxview.Delete(`//course[cno="CS650"]/prereq/course[cno="CS320"]`),
				rxview.Insert(`//course[cno="CS650"]/prereq`, "course", rxview.Str("CS320"), rxview.Str("Database Systems")),
			},
			paths: []string{
				`//course`,
				`//student[ssn="SQ1"]`,
				`//course[cno="CS650"]/takenBy/student`,
				`course[cno="CS650"]//course[cno="CS320"]/prereq`,
				`//course[cno="CS9"]`,
				`//student[name="A"]`,
				`//course[title="T"]/prereq/course`,
				`//course[cno="CS320"]/takenBy/student[ssn="SQ1"]`,
			},
		},
		{
			name: "synthetic",
			open: func(t *testing.T) *rxview.View {
				v, err := rxview.Open(syn.ATG, syn.DB.Clone(), rxview.WithForceSideEffects())
				if err != nil {
					t.Fatal(err)
				}
				return v
			},
			updates: []rxview.Update{
				rxview.Insert(under(r[0]), "C", rxview.Int(k[0]), rxview.Str("w")),
				rxview.Insert(under(r[1]), "C", rxview.Int(k[1]), rxview.Str("v1")),
				rxview.Insert(under(r[1]), "C", rxview.Int(k[0]), rxview.Str("w")),
				rxview.Insert(fmt.Sprintf(`//C[key="%d"]/sub`, k[0]), "C", rxview.Int(k[1]), rxview.Str("v1")),
				rxview.Delete(fmt.Sprintf(`//C[key="%d"]`, k[0])),
				rxview.Delete(fmt.Sprintf(`//C[key="%d"]`, k[1])),
				rxview.Delete(fmt.Sprintf(`//C[key="%d"]/sub/C[key="%d"]`, r[0], k[0])),
				rxview.Delete(`//C[val="v2"]`),
			},
			paths: []string{
				`//C`,
				fmt.Sprintf(`//C[key="%d"]/sub/C`, r[0]),
				fmt.Sprintf(`//C[key="%d"]/sub/C`, r[1]),
				fmt.Sprintf(`C[key="%d"]/sub/C`, r[1]),
				fmt.Sprintf(`//C[key="%d"]//C`, r[0]),
				`//C[val="v1"]`,
				`//C[val="w"]`,
				fmt.Sprintf(`//C[key="%d"]`, k[0]),
				fmt.Sprintf(`//C[key="%d"]/sub/C[val="v1"]`, k[0]),
				`//sub/C[val="v1"]`,
			},
		},
	}
}

// FuzzMemoCarry runs a script of commits against an engine over the
// registrar and a synthetic view, querying every path of the fixture before
// each, so that every publication has a full memo to carry from. After each
// commit every answer the publication carried into the new epoch's memo must
// be the answer of a fresh evaluation at that epoch, node for node, and its
// body byte for byte what encodeQuery writes for it. A script byte picks an
// update (its low bits) and how it runs (its high bits): alone, as a prefix
// batch with the next update, as an atomic group with it, or as a loop step
// that applies it and seals a snapshot of its own first, so that the
// publication after it does not follow the epoch it replaces and must carry
// nothing.
//
// Each rule Delta.Keeps applies, and the predecessor check of
// dag.Version.DeltaFrom, turns the seeds red when dropped (CHANGES.md has
// the table); TestDeltaKeepsEachRule holds each rule alone.
func FuzzMemoCarry(f *testing.F) {
	for _, seed := range [][]byte{
		{0x00, 0x04, 0x02, 0x00, 0x40, 0x04},
		{0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07},
		{0x03, 0x44, 0x85, 0x03, 0xc4, 0x07, 0x06},
		{0x01, 0x03, 0x00, 0x06, 0x07, 0x04, 0x05, 0x02},
		{0x00, 0xc1, 0x02, 0x83, 0x45},
	} {
		f.Add(seed)
	}
	fixtures := carryFixtures(f)
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 24 {
			script = script[:24]
		}
		for _, fx := range fixtures {
			runCarryScript(t, fx, script)
		}
	})
}

// TestMemoCarrySeedsCarryAndDrop: FuzzMemoCarry's seeds exercise both
// verdicts on both views, so that a rule turned off shows in them.
func TestMemoCarrySeedsCarryAndDrop(t *testing.T) {
	for _, fx := range carryFixtures(t) {
		carried, dropped := runCarryScript(t, fx, []byte{0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07})
		if carried == 0 || dropped == 0 {
			t.Errorf("%s: %d answers carried, %d dropped; want some of each", fx.name, carried, dropped)
		}
	}
}

// runCarryScript runs script on a fresh engine over fx's view and returns
// how many answers its publications carried and dropped.
func runCarryScript(t *testing.T, fx carryFixture, script []byte) (carried, dropped uint64) {
	t.Helper()
	ctx := context.Background()
	view := fx.open(t)
	e := New(view)
	defer e.Close()
	for i, b := range script {
		for _, p := range fx.paths {
			if _, err := e.Query(ctx, p); err != nil {
				t.Fatalf("%s: %s: %v", fx.name, p, err)
			}
		}
		u, next := fx.updates[int(b)%len(fx.updates)], fx.updates[(int(b)+1)%len(fx.updates)]
		var what string
		switch b >> 6 {
		case 0:
			what = u.String()
			_, _ = e.Update(ctx, u)
		case 1:
			what = fmt.Sprintf("batch %s; %s", u, next)
			_, _ = e.Batch(ctx, u, next)
		case 2:
			what = fmt.Sprintf("tx %s; %s", u, next)
			_, _ = e.Tx(ctx, u, next)
		default:
			what = fmt.Sprintf("loop step %s, sealed", u)
			if err := e.exec(ctx, func() error {
				_, _ = view.Apply(ctx, u)
				view.Snapshot()
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		ep := e.ep.Load()
		ep.memo.Each(func(path string, a answer) {
			nodes, err := ep.sn.Query(ctx, path)
			if err != nil {
				t.Fatalf("%s step %d (%s): %s: %v", fx.name, i, what, path, err)
			}
			if want := encodeQuery(ep.sn.Generation(), nodes); !reflect.DeepEqual(a.nodes, nodes) || !bytes.Equal(slices.Concat(a.head, a.tail), want) {
				t.Fatalf("%s step %d (%s): %s carried as\n %s\nfresh evaluation at generation %d:\n %s",
					fx.name, i, what, path, slices.Concat(a.head, a.tail), ep.sn.Generation(), want)
			}
		})
	}
	return e.met.memoCarried.Value(), e.met.memoDropped.Value()
}
