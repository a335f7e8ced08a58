package core

import (
	"fmt"
	"reflect"
	"testing"

	"rxview/internal/fault"
	"rxview/internal/testkit"
	"rxview/internal/update"
	"rxview/internal/workload"
)

func parse(t *testing.T, s *System, stmt string) *update.Op {
	t.Helper()
	op, err := update.ParseStatement(s.ATG, stmt)
	if err != nil {
		t.Fatal(err)
	}
	return op
}

func TestDryRunLeavesStateUntouched(t *testing.T) {
	s := openRegistrar(t, Options{ForceSideEffects: true})
	before := s.Stats()

	// A would-apply insertion.
	op := parse(t, s, `insert course(cno="CS777", title="Future") into //course[cno="CS650"]/prereq`)
	rep, err := s.DryRun(op)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Applied || len(rep.DR) == 0 {
		t.Fatalf("dry-run report = %+v", rep)
	}
	if got := s.Stats(); got != before {
		t.Fatalf("dry run changed state: %+v vs %+v", got, before)
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// The database must not contain the dry-run tuples.
	if s.DB.Rel("course").Len() != 4 {
		t.Error("dry run inserted base tuples")
	}

	// A would-apply deletion.
	op = parse(t, s, `delete //course[cno="CS320"]//student[ssn="S02"]`)
	rep, err = s.DryRun(op)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Applied || len(rep.DR) != 1 {
		t.Fatalf("dry-run report = %+v", rep)
	}
	if got := s.Stats(); got != before {
		t.Fatal("dry run changed state")
	}

	// The real thing still works afterwards.
	if _, err := s.Apply(op); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestDryRunMatchesApplyDecision(t *testing.T) {
	stmts := []string{
		`insert course(cno="CS777", title="Future") into //course[cno="CS650"]/prereq`,
		`insert course(cno="EE100", title="Circuits") into .`, // rejected (dept=EE)
		`delete //course[cno="CS320"]//student[ssn="S02"]`,
		`delete //course[cno="CS999"]`, // no-op
		`delete //course/cno`,          // DTD violation
	}
	for _, stmt := range stmts {
		dry := openRegistrar(t, Options{ForceSideEffects: true})
		wet := openRegistrar(t, Options{ForceSideEffects: true})
		opD := parse(t, dry, stmt)
		opW := parse(t, wet, stmt)
		repD, errD := dry.DryRun(opD)
		repW, errW := wet.Apply(opW)
		if (errD == nil) != (errW == nil) {
			t.Errorf("%s: dry err=%v, apply err=%v", stmt, errD, errW)
			continue
		}
		if errD == nil && repD.Applied != repW.Applied {
			t.Errorf("%s: dry applied=%v, apply applied=%v", stmt, repD.Applied, repW.Applied)
		}
		if errD == nil && len(repD.DR) != len(repW.DR) {
			t.Errorf("%s: dry |ΔR|=%d, apply |ΔR|=%d", stmt, len(repD.DR), len(repW.DR))
		}
	}
}

func TestUpdatable(t *testing.T) {
	s := openRegistrar(t, Options{ForceSideEffects: true})
	if !s.Updatable(parse(t, s, `delete //course[cno="CS320"]//student[ssn="S02"]`)) {
		t.Error("enroll-backed deletion should be updatable")
	}
	if s.Updatable(parse(t, s, `delete course[cno="CS320"]`)) {
		t.Error("top-level-only CS320 deletion is not updatable (course row shared with prereq edge)")
	}
	if s.Updatable(parse(t, s, `insert course(cno="EE100", title="Circuits") into .`)) {
		t.Error("EE100 top-level insertion is not updatable")
	}
}

func TestDryRunSideEffectGate(t *testing.T) {
	reg := testkit.Must(workload.NewRegistrar())
	s, err := Open(reg.ATG, reg.DB, Options{}) // no force
	if err != nil {
		t.Fatal(err)
	}
	op := parse(t, s, `insert course(cno="CS777", title="X") into course[cno="CS650"]//course[cno="CS320"]/prereq`)
	if _, err := s.DryRun(op); !IsSideEffect(err) {
		t.Errorf("err = %v, want side-effect gate", err)
	}
}

// TestDryRunIsTheApplyThatFollows: a dry run answers what the Apply after it
// on the same view does — the report (timings aside), the ΔR verbatim, fresh
// values included, and the error. With the storage fault point armed, both
// fail there with the same error and leave the state and the fresh-value
// counter as they were.
func TestDryRunIsTheApplyThatFollows(t *testing.T) {
	synthetic := func(t *testing.T) (*System, []string) {
		syn, s := openSynthetic(t, 200, 1)
		var stmts []string
		for _, op := range syn.InsertWorkload(workload.W1, 2, 1) { // value inserts that mint fresh values
			stmts = append(stmts, op.Stmt)
		}
		for _, op := range syn.DeleteWorkload(workload.W2, 2, 1) {
			stmts = append(stmts, op.Stmt)
		}
		return s, stmts
	}
	registrar := func(t *testing.T) (*System, []string) {
		return openRegistrar(t, Options{ForceSideEffects: true}), []string{
			`insert course(cno="CS777", title="Future") into //course[cno="CS650"]/prereq`,
			`insert course(cno="EE100", title="Circuits") into .`, // rejected (dept=EE)
			`insert course(cno="CS778", title="Side") into course[cno="CS650"]//course[cno="CS320"]/prereq`,
			`delete //course[cno="CS320"]//student[ssn="S02"]`,
			`delete //course[cno="CS999"]`, // no-op
			`delete //course/cno`,          // DTD violation
			`delete //course[cno="CS650"]`, // the garbage collection takes nodes with it
		}
	}
	strip := func(rep *Report) Report {
		r := *rep
		r.Timings = Timings{}
		return r
	}
	for _, view := range []struct {
		name string
		open func(t *testing.T) (*System, []string)
	}{{"registrar", registrar}, {"synthetic", synthetic}} {
		t.Run(view.name, func(t *testing.T) {
			s, stmts := view.open(t)
			for _, stmt := range stmts {
				dry, errD := s.DryRun(parse(t, s, stmt))
				wet, errW := s.Apply(parse(t, s, stmt))
				if fmt.Sprint(errD) != fmt.Sprint(errW) {
					t.Fatalf("%s: dry run err = %v, Apply err = %v", stmt, errD, errW)
				}
				if d, w := strip(dry), strip(wet); !reflect.DeepEqual(d, w) {
					t.Fatalf("%s: dry run and Apply differ:\n dry:   %+v\n apply: %+v", stmt, d, w)
				}
			}
		})
		t.Run(view.name+"/storage-fault", func(t *testing.T) {
			s, stmts := view.open(t)
			before, fresh := stateFingerprint(s), s.Translator.Fresh()
			arm := func() {
				plan, err := fault.NewPlan(1, fault.Rule{Point: fault.StorageApply})
				if err != nil {
					t.Fatal(err)
				}
				fault.Install(plan)
			}
			t.Cleanup(fault.Uninstall)
			for _, stmt := range stmts {
				arm()
				dry, errD := s.DryRun(parse(t, s, stmt))
				arm()
				wet, errW := s.Apply(parse(t, s, stmt))
				if fmt.Sprint(errD) != fmt.Sprint(errW) {
					t.Fatalf("%s under storage.apply: dry run err = %v, Apply err = %v", stmt, errD, errW)
				}
				if d, w := strip(dry), strip(wet); !reflect.DeepEqual(d, w) {
					t.Fatalf("%s under storage.apply: dry run and Apply differ:\n dry:   %+v\n apply: %+v", stmt, d, w)
				}
				if got := stateFingerprint(s); got != before || s.Translator.Fresh() != fresh {
					t.Fatalf("%s under storage.apply left a trace (fresh-value counter %d, was %d)", stmt, s.Translator.Fresh(), fresh)
				}
			}
		})
	}
}
