package core

import (
	"context"
	"errors"
	"testing"
)

// White-box tests of the commit-sink contract: per-stage record capture,
// durable-before-verdict ordering for atomic groups, and the afterSync
// trigger.

func TestSinkGetsOneRecordPerStage(t *testing.T) {
	ctx := context.Background()
	s := openRegistrar(t, Options{})
	var got []CommitRecord
	s.SetCommitSink(func(recs []CommitRecord) error {
		got = append(got, recs...)
		return nil
	}, nil)

	tx, err := s.Begin(false)
	if err != nil {
		t.Fatal(err)
	}
	stmts := []string{
		`insert course(cno="CS111", title="Intro") into .`,
		`insert course(cno="CS112", title="Intro II") into //course[cno="CS111"]/prereq`,
	}
	for _, stmt := range stmts {
		if _, err := tx.Stage(ctx, mustOp(t, s, stmt)); err != nil {
			t.Fatalf("stage %q: %v", stmt, err)
		}
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(stmts) {
		t.Fatalf("sink received %d records for %d stages", len(got), len(stmts))
	}
	for i, rec := range got {
		if rec.Gen != uint64(i+1) {
			t.Fatalf("record %d has generation %d", i, rec.Gen)
		}
		if len(rec.Delta) == 0 || len(rec.DR) == 0 {
			t.Fatalf("record %d is empty: %+v", i, rec)
		}
	}
}

func TestAtomicSinkErrorRollsBack(t *testing.T) {
	ctx := context.Background()
	s := openRegistrar(t, Options{})
	want := stateFingerprint(s)
	sinkErr := errors.New("disk gone")
	s.SetCommitSink(func([]CommitRecord) error { return sinkErr }, nil)

	tx, err := s.Begin(true)
	if err != nil {
		t.Fatal(err)
	}
	for _, stmt := range txGroup {
		if _, err := tx.Stage(ctx, mustOp(t, s, stmt)); err != nil {
			t.Fatalf("stage %q: %v", stmt, err)
		}
	}
	err = tx.Commit(ctx)
	if !errors.Is(err, sinkErr) {
		t.Fatalf("commit error = %v, want the sink error", err)
	}
	// Durable-before-verdict: the sink refused, so the atomic group must
	// leave no trace.
	if got := stateFingerprint(s); got != want {
		t.Fatalf("state changed after refused atomic commit:\n%s\nvs\n%s", got, want)
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestNonAtomicSinkErrorKeepsAppliedPrefix(t *testing.T) {
	ctx := context.Background()
	s := openRegistrar(t, Options{})
	sinkErr := errors.New("disk gone")
	s.SetCommitSink(func([]CommitRecord) error { return sinkErr }, nil)

	tx, err := s.Begin(false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Stage(ctx, mustOp(t, s, `insert course(cno="CS111", title="Intro") into .`)); err != nil {
		t.Fatal(err)
	}
	err = tx.Commit(ctx)
	if !errors.Is(err, sinkErr) {
		t.Fatalf("commit error = %v, want the sink error", err)
	}
	// Non-atomic semantics: the stage is already applied in memory; only
	// durability failed.
	if s.Generation() != 1 {
		t.Fatalf("generation = %d, want 1", s.Generation())
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestAfterSyncFiresWithHighestGen(t *testing.T) {
	s := openRegistrar(t, Options{})
	var fired []uint64
	s.SetCommitSink(func([]CommitRecord) error { return nil },
		func(gen uint64) { fired = append(fired, gen) })

	if _, err := s.Execute(`insert course(cno="CS111", title="Intro") into .`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute(`insert course(cno="CS112", title="Intro II") into //course[cno="CS111"]/prereq`); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 2 {
		t.Fatalf("afterSync fired with %v, want [1 2]", fired)
	}
	// afterSync must see a quiescent system: a checkpoint-style reentrant
	// read must not observe an open transaction.
	s.SetCommitSink(func([]CommitRecord) error { return nil }, func(gen uint64) {
		if s.InTxn() {
			t.Error("afterSync ran with the transaction still open")
		}
	})
	if _, err := s.Execute(`insert student(ssn="S09", name="Ida") into //course[cno="CS112"]/takenBy`); err != nil {
		t.Fatal(err)
	}
}
