package core

import (
	"context"
	"errors"
	"testing"
)

// White-box tests of the replication seam: the commit observer (fires only
// for records the sink accepted) and ApplyCommitRecord (the follower's
// incremental replay, which must reproduce the primary's state exactly —
// node identities, the entry sequence of L and all).

func TestObserverFiresOnlyAfterSinkAccepts(t *testing.T) {
	ctx := context.Background()
	s := openRegistrar(t, Options{})
	sinkErr := errors.New("disk gone")
	fail := false
	s.SetCommitSink(func([]CommitRecord) error {
		if fail {
			return sinkErr
		}
		return nil
	}, nil)
	var seen []uint64
	s.AddCommitObserver(func(recs []CommitRecord) {
		for _, r := range recs {
			seen = append(seen, r.Gen)
		}
	})

	if _, err := s.Execute(`insert course(cno="CS111", title="Intro") into .`); err != nil {
		t.Fatal(err)
	}
	fail = true
	tx, err := s.Begin(true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Stage(ctx, mustOp(t, s, `insert course(cno="CS112", title="Intro II") into .`)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(ctx); !errors.Is(err, sinkErr) {
		t.Fatalf("commit error = %v, want the sink error", err)
	}
	if len(seen) != 1 || seen[0] != 1 {
		t.Fatalf("observer saw generations %v, want [1]: a refused commit must never be observed", seen)
	}
}

// TestApplyCommitRecordReplaysTwin drives a mixed workload — one-shot
// applies, an atomic group with a GC cascade, shared-edge insertion and
// removal — on a primary while an observer captures the record stream, then
// replays the stream record by record onto a twin system. The twin must
// track the primary's generation exactly and end bit-identical;
// CheckConsistency on the twin proves that the per-op maintenance of L and
// of the translator's source index equals a rebuild.
func TestApplyCommitRecordReplaysTwin(t *testing.T) {
	ctx := context.Background()
	primary := openRegistrar(t, Options{ForceSideEffects: true})
	twin := openRegistrar(t, Options{ForceSideEffects: true})

	var stream []CommitRecord
	primary.SetCommitSink(func([]CommitRecord) error { return nil }, nil)
	primary.AddCommitObserver(func(recs []CommitRecord) {
		stream = append(stream, recs...)
	})

	apply := func(rec CommitRecord) {
		t.Helper()
		if err := twin.ApplyCommitRecord(rec); err != nil {
			t.Fatalf("replay generation %d: %v", rec.Gen, err)
		}
	}
	next := 0
	drain := func() {
		t.Helper()
		for ; next < len(stream); next++ {
			apply(stream[next])
		}
		if twin.Generation() != primary.Generation() {
			t.Fatalf("twin at generation %d, primary at %d", twin.Generation(), primary.Generation())
		}
	}

	// One-shot applies, including an edge to an already-published node
	// (pure EdgeAdd, no NodeAdd) and its removal (edge delete that does not
	// kill the shared node).
	for _, stmt := range []string{
		`insert course(cno="CS111", title="Intro") into .`,
		`insert course(cno="CS111", title="Intro") into //course[cno="CS320"]/prereq`,
		`delete //course[cno="CS320"]/prereq/course[cno="CS111"]`,
	} {
		if _, err := primary.Execute(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		drain()
	}

	// An atomic group: one record for the whole group, GC cascade included.
	tx, err := primary.Begin(true)
	if err != nil {
		t.Fatal(err)
	}
	for _, stmt := range txGroup {
		if _, err := tx.Stage(ctx, mustOp(t, primary, stmt)); err != nil {
			t.Fatalf("stage %q: %v", stmt, err)
		}
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	drain()

	// A deletion that garbage-collects a whole subtree.
	if _, err := primary.Execute(`delete //course[cno="CS111"]`); err != nil {
		t.Fatal(err)
	}
	drain()

	if got, want := stateFingerprint(twin), stateFingerprint(primary); got != want {
		t.Fatalf("twin state diverged:\n%s\nvs primary:\n%s", got, want)
	}
	if err := twin.CheckConsistency(); err != nil {
		t.Fatalf("twin consistency after incremental replay: %v", err)
	}

	// A generation gap must be refused, not replayed into a wrong state.
	err = twin.ApplyCommitRecord(CommitRecord{Gen: twin.Generation() + 2})
	if err == nil {
		t.Fatal("gap record applied")
	}
}
