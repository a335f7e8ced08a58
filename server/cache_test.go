package server_test

import (
	"context"
	"errors"
	"testing"

	"rxview"
)

// TestQueryMemoServesRepeatsAndResetsPerEpoch checks the per-epoch result
// memo: repeats of a query within one epoch are memo hits returning the
// same answer; an applied write publishes a fresh epoch whose first read
// misses the memo and sees the write at the new generation (read-your-writes
// is not weakened by caching). TestQueryHitIsTheMissResponse holds the hit's
// HTTP response to the miss's, byte for byte.
func TestQueryMemoServesRepeatsAndResetsPerEpoch(t *testing.T) {
	ctx := context.Background()
	e, _ := mustRegistrarEngine(t, rxview.WithForceSideEffects())

	const q = `//course[cno="CS650"]/takenBy/student`
	first, err := e.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	st0 := e.Stats()
	if st0.QueryMemoMisses == 0 {
		t.Fatalf("first read should miss the memo: %+v", st0)
	}

	again, err := e.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	st1 := e.Stats()
	if st1.QueryMemoHits != st0.QueryMemoHits+1 {
		t.Fatalf("repeat read should hit the memo: before %+v after %+v", st0, st1)
	}
	if render(again.Nodes) != render(first.Nodes) || again.Generation != first.Generation {
		t.Fatal("memo hit returned a different answer")
	}

	// Write, then re-read: a new epoch is published with an empty memo, so
	// the read must miss and include the new student.
	u := rxview.Insert(`//course[cno="CS650"]/takenBy`, "student", rxview.Str("S77"), rxview.Str("Memo"))
	if rep, err := e.Update(ctx, u); err != nil || !rep.Applied {
		t.Fatalf("update: rep=%+v err=%v", rep, err)
	}
	after, err := e.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Nodes) != len(first.Nodes)+1 || after.Generation != first.Generation+1 {
		t.Fatalf("post-write read = %d nodes at generation %d, want %d at %d",
			len(after.Nodes), after.Generation, len(first.Nodes)+1, first.Generation+1)
	}
	st2 := e.Stats()
	if st2.QueryMemoMisses != st1.QueryMemoMisses+1 {
		t.Fatalf("post-write read should miss the fresh epoch's memo: %+v", st2)
	}

	// The compiled-path cache is process-wide: by now q parsed at most once
	// since the counters moved, and hits keep accumulating.
	if st2.PathCacheHits == 0 {
		t.Fatalf("compiled-path cache never hit: %+v", st2)
	}
}

// TestQueryMemoParseErrorFastPath: malformed queries are not memoized per
// epoch (they never evaluate), but their parse error is cached at the
// compiled-path layer and keeps failing fast with ErrParse.
func TestQueryMemoParseErrorFastPath(t *testing.T) {
	ctx := context.Background()
	e, _ := mustRegistrarEngine(t)

	_, misses0 := rxview.PathCacheStats()
	for i := 0; i < 3; i++ {
		if _, err := e.Query(ctx, `//course[`); !errors.Is(err, rxview.ErrParse) {
			t.Fatalf("want ErrParse, got %v", err)
		}
	}
	_, misses1 := rxview.PathCacheStats()
	if misses1 > misses0+1 {
		t.Fatalf("malformed query re-parsed: misses %d -> %d", misses0, misses1)
	}
}
