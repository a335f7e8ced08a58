package rxview_test

// End-to-end integration tests: long, randomized update sequences over both
// datasets, with the full system invariant ΔX(T) = σ(ΔR(I)) (re-publish and
// compare; the source index revalidated) checked along the way. Everything
// here goes through the public rxview API.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"rxview"
)

func TestIntegrationRegistrarRandomSequences(t *testing.T) {
	ctx := context.Background()
	courses := []string{"CS650", "CS320", "CS240", "CS501", "CS502", "CS503"}
	students := []string{"S01", "S02", "S11", "S12"}

	for seed := int64(0); seed < 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			atg, db := rxview.MustRegistrar()
			view, err := rxview.Open(atg, db, rxview.WithForceSideEffects())
			if err != nil {
				t.Fatal(err)
			}
			applied, rejected := 0, 0
			for step := 0; step < 30; step++ {
				var stmt string
				c := courses[rng.Intn(len(courses))]
				c2 := courses[rng.Intn(len(courses))]
				s := students[rng.Intn(len(students))]
				switch rng.Intn(6) {
				case 0:
					stmt = fmt.Sprintf(`insert course(cno="%s", title="T%s") into .`, c, c)
				case 1:
					stmt = fmt.Sprintf(`insert course(cno="%s", title="T%s") into //course[cno="%s"]/prereq`, c, c, c2)
				case 2:
					stmt = fmt.Sprintf(`insert student(ssn="%s", name="N%s") into //course[cno="%s"]/takenBy`, s, s, c)
				case 3:
					stmt = fmt.Sprintf(`delete //course[cno="%s"]/prereq/course[cno="%s"]`, c2, c)
				case 4:
					stmt = fmt.Sprintf(`delete //course[cno="%s"]//student[ssn="%s"]`, c, s)
				case 5:
					stmt = fmt.Sprintf(`delete //course[cno="%s"]`, c)
				}
				rep, err := view.Execute(ctx, stmt)
				switch {
				case err == nil:
					if rep.Applied {
						applied++
					}
				case errors.Is(err, rxview.ErrNotUpdatable):
					rejected++ // legitimate: the update is untranslatable
				default:
					// Structural rejections (cycles, pre-existing titles
					// with different attrs) are fine too; anything else is
					// a bug.
					if !isBenign(err) {
						t.Fatalf("step %d (%s): %v", step, stmt, err)
					}
				}
				if err := view.CheckConsistency(); err != nil {
					t.Fatalf("step %d (%s): invariant broken: %v", step, stmt, err)
				}
			}
			if applied == 0 {
				t.Error("sequence applied nothing")
			}
			t.Logf("applied=%d rejected=%d", applied, rejected)
		})
	}
}

func isBenign(err error) bool {
	for _, sub := range []string{"cycle", "cannot insert", "attribute has"} {
		if strings.Contains(err.Error(), sub) {
			return true
		}
	}
	return false
}

func TestIntegrationSyntheticLongSequence(t *testing.T) {
	if testing.Short() {
		t.Skip("long sequence")
	}
	ctx := context.Background()
	syn, err := rxview.NewSynthetic(rxview.SyntheticConfig{NC: 220, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	view, err := rxview.Open(syn.ATG, syn.DB, rxview.WithForceSideEffects())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	applied := 0
	for round := 0; round < 8; round++ {
		var stmts []string
		class := rxview.WorkloadClass(1 + rng.Intn(3))
		if rng.Intn(2) == 0 {
			stmts = syn.DeleteWorkload(class, 2, rng.Int63())
		} else {
			stmts = syn.InsertWorkload(class, 2, rng.Int63())
		}
		for _, stmt := range stmts {
			rep, err := view.Execute(ctx, stmt)
			if err != nil && !errors.Is(err, rxview.ErrNotUpdatable) {
				t.Fatalf("%s: %v", stmt, err)
			}
			if err == nil && rep.Applied {
				applied++
			}
		}
		if err := view.CheckConsistency(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if applied == 0 {
		t.Error("nothing applied")
	}
}

func TestIntegrationDeleteEverything(t *testing.T) {
	// Tear the whole registrar view down course by course; the database
	// and auxiliary structures must stay consistent at each step, ending
	// with an empty view.
	ctx := context.Background()
	atg, db := rxview.MustRegistrar()
	view, err := rxview.Open(atg, db, rxview.WithForceSideEffects())
	if err != nil {
		t.Fatal(err)
	}
	for _, cno := range []string{"CS650", "CS320", "CS240"} {
		if _, err := view.Apply(ctx, rxview.Delete(fmt.Sprintf(`//course[cno="%s"]`, cno))); err != nil {
			t.Fatalf("delete %s: %v", cno, err)
		}
		if err := view.CheckConsistency(); err != nil {
			t.Fatalf("after %s: %v", cno, err)
		}
	}
	if got, _ := view.Query(ctx, `//course`); len(got) != 0 {
		t.Errorf("courses left: %v", got)
	}
	st := view.Stats()
	if st.Nodes != 1 { // just the root
		t.Errorf("nodes left = %d", st.Nodes)
	}
	// Rebuild on the emptied view.
	if _, err := view.Apply(ctx, rxview.Insert(`.`, "course", rxview.Str("CS900"), rxview.Str("Rebirth"))); err != nil {
		t.Fatal(err)
	}
	if err := view.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if got, _ := view.Query(ctx, `//course`); len(got) != 1 {
		t.Errorf("rebuild failed: %v", got)
	}
}
