// Bill-of-materials example: a second recursive view built from scratch with
// the public schema and ATG builders — parts contain subparts (shared
// subassemblies!) and have suppliers. Demonstrates defining your own
// σ : R → D, key preservation, shared-subtree updates, a programmable
// side-effect policy, and batched updates on a domain other than the
// paper's registrar.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"rxview"
)

func buildView() (*rxview.ATG, *rxview.DB, error) {
	str, intK := rxview.KindString, rxview.KindInt
	bit := []rxview.Value{rxview.Int(0), rxview.Int(1)}
	schema, err := rxview.NewSchema(
		rxview.Table{Name: "part", Columns: []rxview.Column{
			{Name: "pno", Type: str},
			{Name: "pname", Type: str},
			{Name: "top", Type: intK, Domain: bit},
		}, Key: []string{"pno"}},
		rxview.Table{Name: "contains", Columns: []rxview.Column{
			{Name: "parent", Type: str},
			{Name: "child", Type: str},
		}, Key: []string{"parent", "child"}},
		rxview.Table{Name: "supplier", Columns: []rxview.Column{
			{Name: "sid", Type: str},
			{Name: "sname", Type: str},
		}, Key: []string{"sid"}},
		rxview.Table{Name: "supplies", Columns: []rxview.Column{
			{Name: "sid", Type: str},
			{Name: "pno", Type: str},
		}, Key: []string{"sid", "pno"}},
	)
	if err != nil {
		return nil, nil, err
	}

	qTop := rxview.Query{
		Name: "Qcatalog_part",
		From: []string{"part"},
		Where: []rxview.Pred{
			rxview.Eq(rxview.Col(0, 2), rxview.Const(rxview.Int(1))),
		},
		Select: []rxview.Sel{
			{As: "pno", Src: rxview.Col(0, 0)},
			{As: "pname", Src: rxview.Col(0, 1)},
		},
	}
	qSub := rxview.Query{
		Name:   "Qsubparts_part",
		Params: 1,
		From:   []string{"contains", "part"},
		Where: []rxview.Pred{
			rxview.Eq(rxview.Col(0, 0), rxview.Param(0)),
			rxview.Eq(rxview.Col(0, 1), rxview.Col(1, 0)),
		},
		Select: []rxview.Sel{
			{As: "pno", Src: rxview.Col(1, 0)},
			{As: "pname", Src: rxview.Col(1, 1)},
		},
	}
	qSup := rxview.Query{
		Name:   "Qsuppliers_supplier",
		Params: 1,
		From:   []string{"supplies", "supplier"},
		Where: []rxview.Pred{
			rxview.Eq(rxview.Col(0, 1), rxview.Param(0)),
			rxview.Eq(rxview.Col(0, 0), rxview.Col(1, 0)),
		},
		Select: []rxview.Sel{
			{As: "sid", Src: rxview.Col(1, 0)},
			{As: "sname", Src: rxview.Col(1, 1)},
		},
	}
	atg, err := rxview.NewBuilder(`
<!ELEMENT catalog (part*)>
<!ELEMENT part (pno, pname, subparts, suppliers)>
<!ELEMENT subparts (part*)>
<!ELEMENT suppliers (supplier*)>
<!ELEMENT supplier (sid, sname)>
<!ELEMENT pno (#PCDATA)>
<!ELEMENT pname (#PCDATA)>
<!ELEMENT sid (#PCDATA)>
<!ELEMENT sname (#PCDATA)>
`, schema).
		Attr("part", rxview.Field("pno", str), rxview.Field("pname", str)).
		Attr("subparts", rxview.Field("pno", str)).
		Attr("suppliers", rxview.Field("pno", str)).
		Attr("supplier", rxview.Field("sid", str), rxview.Field("sname", str)).
		Attr("pno", rxview.Field("v", str)).
		Attr("pname", rxview.Field("v", str)).
		Attr("sid", rxview.Field("v", str)).
		Attr("sname", rxview.Field("v", str)).
		QueryRule("catalog", "part", qTop).
		ProjRule("part", "pno", rxview.FromParent(0)).
		ProjRule("part", "pname", rxview.FromParent(1)).
		ProjRule("part", "subparts", rxview.FromParent(0)).
		ProjRule("part", "suppliers", rxview.FromParent(0)).
		QueryRule("subparts", "part", qSub).
		QueryRule("suppliers", "supplier", qSup).
		ProjRule("supplier", "sid", rxview.FromParent(0)).
		ProjRule("supplier", "sname", rxview.FromParent(1)).
		Build()
	if err != nil {
		return nil, nil, err
	}

	db := rxview.NewDB(schema)
	s, n := rxview.Str, rxview.Int
	for _, p := range [][]rxview.Value{
		{s("P1"), s("car"), n(1)},
		{s("P2"), s("cart"), n(1)},
		{s("P3"), s("wheel"), n(0)},
		{s("P4"), s("axle"), n(0)},
		{s("P5"), s("hub"), n(0)},
		{s("P6"), s("engine"), n(0)},
	} {
		if err := db.Insert("part", p...); err != nil {
			return nil, nil, err
		}
	}
	for _, c := range [][2]string{
		{"P1", "P3"}, {"P1", "P6"}, // car: wheel + engine
		{"P2", "P3"},               // cart: wheel (shared subassembly!)
		{"P3", "P4"}, {"P3", "P5"}, // wheel: axle + hub
	} {
		if err := db.Insert("contains", s(c[0]), s(c[1])); err != nil {
			return nil, nil, err
		}
	}
	db.MustInsert("supplier", s("S1"), s("Acme"))
	db.MustInsert("supplier", s("S2"), s("Globex"))
	db.MustInsert("supplies", s("S1"), s("P3"))
	db.MustInsert("supplies", s("S2"), s("P6"))
	return atg, db, nil
}

func main() {
	ctx := context.Background()
	atg, db, err := buildView()
	if err != nil {
		log.Fatal(err)
	}
	view, err := rxview.Open(atg, db)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== bill-of-materials view ==")
	xml, err := view.XML(10000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(xml)
	st := view.Stats()
	fmt.Printf("the wheel subassembly is stored once: %d DAG nodes vs %.0f tree nodes (%.2fx)\n\n",
		st.Nodes, st.TreeSize, st.Compression)

	// Adding a tire to the wheel of the CAR only is a side effect: the cart
	// shares the same wheel.
	tire := rxview.Insert(`part[pno="P1"]/subparts/part[pno="P3"]/subparts`,
		"part", rxview.Str("P7"), rxview.Str("tire"))
	fmt.Println("==", tire, "==")
	_, err = view.Apply(ctx, tire)
	if errors.Is(err, rxview.ErrSideEffect) {
		fmt.Println("  side effect detected: the cart's wheel would change too")
	} else if err != nil {
		log.Fatal(err)
	}

	// A programmable strategy instead of all-or-nothing forcing: apply
	// shared-subtree insertions everywhere, but never cascade deletions
	// through shared subassemblies.
	policy := rxview.WithSideEffectPolicy(func(info rxview.SideEffectInfo) rxview.Decision {
		if info.Delete {
			return rxview.Reject
		}
		return rxview.ApplyEverywhere
	})
	viewP, err := rxview.Open(atg, db, policy)
	if err != nil {
		log.Fatal(err)
	}

	// Adding the tire to every wheel occurrence is what the policy does.
	every := rxview.Insert(`//part[pno="P3"]/subparts`, "part", rxview.Str("P7"), rxview.Str("tire"))
	fmt.Println("==", every, "==")
	rep, err := viewP.Apply(ctx, every)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  applied; ΔR: %v\n", rep.Changes)
	if err := viewP.CheckConsistency(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("  consistency verified ✓")

	// A batch: drop the engine from the car and register two gearbox
	// subparts, as one non-atomic group.
	fmt.Println("== batch: -engine, +gearbox, +clutch ==")
	reps, err := viewP.Batch(ctx,
		rxview.Delete(`part[pno="P1"]/subparts/part[pno="P6"]`),
		rxview.Insert(`part[pno="P1"]/subparts`, "part", rxview.Str("P8"), rxview.Str("gearbox")),
		rxview.Insert(`//part[pno="P8"]/subparts`, "part", rxview.Str("P9"), rxview.Str("clutch")),
	)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range reps {
		fmt.Printf("  %s -> applied=%v ΔR=%v\n", r.Op, r.Applied, r.Changes)
	}
	if err := viewP.CheckConsistency(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("  consistency verified ✓")
	fmt.Println()
	xml, _ = viewP.XML(10000)
	fmt.Println(xml)
}
