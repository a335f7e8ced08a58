package core

import (
	"context"
	"testing"
)

// White-box test of the replication seam: ApplyCommitRecord, the follower's
// incremental replay, which must reproduce the primary's state exactly — node
// identities and all. (That a follower is told of a
// commit only once the sink's log accepted it is the root package's
// TestReplSourceSeesOnlyAcceptedAppends: the sink is the one hook.)

// TestApplyCommitRecordReplaysTwin drives a mixed workload — one-shot
// applies, an atomic group with a GC cascade, shared-edge insertion and
// removal — on a primary while its sink captures the record stream, then
// replays the stream record by record onto a twin system. The twin must
// track the primary's generation exactly and end bit-identical;
// CheckConsistency on the twin proves that the replayed maintenance of the
// translator's source index equals a rebuild.
func TestApplyCommitRecordReplaysTwin(t *testing.T) {
	ctx := context.Background()
	primary := openRegistrar(t, Options{ForceSideEffects: true})
	twin := openRegistrar(t, Options{ForceSideEffects: true})

	var stream []CommitRecord
	primary.SetCommitSink(func(recs []CommitRecord) error {
		stream = append(stream, recs...)
		return nil
	}, nil)

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
