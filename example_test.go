package rxview_test

import (
	"context"
	"errors"
	"fmt"

	"rxview"
)

// ExampleOpen publishes the paper's registrar database (Example 1) and runs
// a recursive XPath query over the DAG-compressed view.
func ExampleOpen() {
	atg, db, err := rxview.NewRegistrar()
	if err != nil {
		panic(err)
	}
	view, err := rxview.Open(atg, db)
	if err != nil {
		panic(err)
	}
	courses, err := view.Query(context.Background(), `//course`)
	if err != nil {
		panic(err)
	}
	for _, c := range courses {
		fmt.Println(c)
	}
	// Output:
	// course(CS650, Advanced Topics)
	// course(CS320, Databases)
	// course(CS240, Algorithms)
}

// ExampleView_Apply deletes one prerequisite edge and shows the relational
// translation ΔR the update compiles to.
func ExampleView_Apply() {
	atg, db, err := rxview.NewRegistrar()
	if err != nil {
		panic(err)
	}
	view, err := rxview.Open(atg, db)
	if err != nil {
		panic(err)
	}
	rep, err := view.Apply(context.Background(),
		rxview.Delete(`//course[cno="CS320"]/prereq/course[cno="CS240"]`))
	if err != nil {
		panic(err)
	}
	for _, m := range rep.Changes {
		fmt.Println(m)
	}
	fmt.Println("consistent:", view.CheckConsistency() == nil)
	// Output:
	// delete prereq (CS320, CS240)
	// consistent: true
}

// ExampleView_Batch enrolls several students as one non-atomic group: the
// same result as three Apply calls, in one call (and, on a durable view, one
// log append).
func ExampleView_Batch() {
	atg, db, err := rxview.NewRegistrar()
	if err != nil {
		panic(err)
	}
	view, err := rxview.Open(atg, db)
	if err != nil {
		panic(err)
	}
	reports, err := view.Batch(context.Background(),
		rxview.Insert(`//course[cno="CS650"]/takenBy`, "student", rxview.Str("S21"), rxview.Str("Uma")),
		rxview.Insert(`//course[cno="CS650"]/takenBy`, "student", rxview.Str("S22"), rxview.Str("Vic")),
		rxview.Insert(`//course[cno="CS650"]/takenBy`, "student", rxview.Str("S23"), rxview.Str("Wes")),
	)
	if err != nil {
		panic(err)
	}
	applied := 0
	for _, r := range reports {
		if r.Applied {
			applied++
		}
	}
	fmt.Println("applied:", applied)
	fmt.Println("consistent:", view.CheckConsistency() == nil)
	// Output:
	// applied: 3
	// consistent: true
}

// ExampleWithSideEffectPolicy shows a programmable update strategy: the
// policy receives each detected side effect and decides it individually.
func ExampleWithSideEffectPolicy() {
	atg, db, err := rxview.NewRegistrar()
	if err != nil {
		panic(err)
	}
	view, err := rxview.Open(atg, db,
		rxview.WithSideEffectPolicy(func(info rxview.SideEffectInfo) rxview.Decision {
			if info.Delete {
				return rxview.Reject // never cascade through shared subtrees
			}
			return rxview.ApplyEverywhere // revised semantics for insertions
		}))
	if err != nil {
		panic(err)
	}
	// CS240's subtree is shared; the policy applies the insertion at every
	// occurrence.
	rep, err := view.Apply(context.Background(),
		rxview.Insert(`course[cno="CS650"]//course[cno="CS240"]/takenBy`,
			"student", rxview.Str("S31"), rxview.Str("Ada")))
	if err != nil {
		panic(err)
	}
	fmt.Println("applied with side effects:", rep.Applied && rep.SideEffects)

	// Deleting the shared CS240 occurrence is refused by the same policy.
	_, err = view.Apply(context.Background(),
		rxview.Delete(`course[cno="CS650"]//course[cno="CS240"]`))
	fmt.Println("delete rejected:", errors.Is(err, rxview.ErrSideEffect))
	// Output:
	// applied with side effects: true
	// delete rejected: true
}
