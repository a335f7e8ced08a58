package core

import (
	"context"
	"fmt"
	"slices"
	"testing"
)

// White-box test of the replication seam: ApplyCommitRecord, the follower's
// incremental replay, which must reproduce the primary's state exactly — node
// identities, the entry sequence of L and all. (That a follower is told of a
// commit only once the sink's log accepted it is the root package's
// TestReplSourceSeesOnlyAcceptedAppends: the sink is the one hook.)

// TestApplyCommitRecordReplaysTwin drives a mixed workload — one-shot
// applies, an atomic group with a GC cascade, shared-edge insertion and
// removal — on a primary while its sink captures the record stream, then
// replays the stream record by record onto a twin system. The twin must
// track the primary's generation exactly and end bit-identical;
// CheckConsistency on the twin proves that the per-op maintenance of L and
// of the translator's source index equals a rebuild.
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

// TestReplayKeepsLWhenSubtreesSurvive: inserted subtrees that stay in the
// view — value-selected inserts that hang one new subtree under many C
// nodes, rooted ones, and inserts placed into the holes deletes left, one at
// a time and in an atomic group — replay to the primary's L entry for
// entry, after every record, on the synthetic view and on the registrar.
func TestReplayKeepsLWhenSubtreesSurvive(t *testing.T) {
	ctx := context.Background()
	run := func(t *testing.T, primary, follower *System, steps [][]string) {
		t.Helper()
		var stream []CommitRecord
		primary.SetCommitSink(func(recs []CommitRecord) error {
			stream = append(stream, recs...)
			return nil
		}, nil)
		for _, stmts := range steps {
			tx, err := primary.Begin(len(stmts) > 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, stmt := range stmts {
				if rep, err := tx.Stage(ctx, mustOp(t, primary, stmt)); err != nil || !rep.Applied {
					t.Fatalf("%s: applied %v: %v", stmt, rep.Applied, err)
				}
			}
			if err := tx.Commit(ctx); err != nil {
				t.Fatal(err)
			}
			for ; len(stream) > 0; stream = stream[1:] {
				if err := follower.ApplyCommitRecord(stream[0]); err != nil {
					t.Fatalf("generation %d: %v", stream[0].Gen, err)
				}
			}
			if got, want := follower.Topo.Nodes(), primary.Topo.Nodes(); !slices.Equal(got, want) {
				t.Fatalf("after %q: follower L = %v, primary %v", stmts, got, want)
			}
		}
		if got, want := stateFingerprint(follower), stateFingerprint(primary); got != want {
			t.Fatalf("follower diverged:\n%s\nvs\n%s", got, want)
		}
		if err := follower.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("synthetic", func(t *testing.T) {
		syn, primary := openSynthetic(t, 400, 5)
		_, follower := openSynthetic(t, 400, 5)
		root := syn.Roots[0]
		ins := func(path string) string {
			key := syn.NextKey
			syn.NextKey++
			return fmt.Sprintf(`insert C(c1=%d, c6="w%d") into %s`, key, key, path)
		}
		valued, rooted := `//C[val="v3"]/sub`, fmt.Sprintf(`C[key="%d"]/sub`, root)
		first := syn.NextKey
		run(t, primary, follower, [][]string{
			{ins(valued)},
			{ins(rooted)},
			{ins(valued)},
			{fmt.Sprintf(`delete //C[key="%d"]`, first)},
			{ins(valued)},
			{ins(rooted), ins(valued)},
			{fmt.Sprintf(`delete //C[key="%d"]`, first+1)},
			{ins(rooted)},
		})
	})
	t.Run("registrar", func(t *testing.T) {
		primary := openRegistrar(t, Options{ForceSideEffects: true})
		follower := openRegistrar(t, Options{ForceSideEffects: true})
		run(t, primary, follower, [][]string{
			{`insert course(cno="CS111", title="Intro") into .`},
			{`insert student(ssn="S08", name="Hal") into //course[cno="CS111"]/takenBy`},
			{`insert course(cno="CS112", title="Intro II") into //course[cno="CS111"]/prereq`},
			{`delete //course[cno="CS320"]//student[ssn="S02"]`},
			{`insert course(cno="CS901", title="A") into .`, `insert course(cno="CS902", title="B") into .`},
			{`insert student(ssn="S09", name="Ida") into //course[cno="CS901"]/takenBy`},
		})
	})
}
