package core

import (
	"testing"

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
