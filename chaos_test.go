package rxview_test

// Chaos tests of the resilience layer: a seeded fault schedule injected
// into the durability seams during a mixed workload, with a per-write
// verdict ledger proving verdict honesty (no write is both rejected to
// the client and present in recovered state, no acknowledged write is
// lost), plus the degraded→recovered transition with its generation-
// monotonicity guarantee. Fault injection is process-wide, so nothing
// here runs in parallel.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"rxview"
)

func chaosIns(cno string) rxview.Update {
	return rxview.Insert(`.`, "course", rxview.Str(cno), rxview.Str("Chaos"))
}

// recoverDegraded retries View.Recover until the view is read-write again.
// Bounded: recovery itself can be fault-injected (the checkpoint seal), so
// a few attempts may legitimately fail before one lands.
func recoverDegraded(t *testing.T, v *rxview.View) {
	t.Helper()
	for i := 0; v.Degraded(); i++ {
		if i > 10 {
			t.Fatal("recovery did not converge in 10 attempts")
		}
		if err := v.Recover(); err != nil {
			t.Logf("recovery attempt %d: %v", i, err)
		}
	}
}

// TestChaosSoakMatchesOracle runs a seeded schedule of every cataloged
// fault kind against a durable view while an in-memory oracle applies
// exactly the writes the live view reported applied. Zero divergence is
// required at three points: live state after the soak, recovered state
// after reopen, and the per-write ledger (definite rejections absent,
// acknowledged writes present).
func TestChaosSoakMatchesOracle(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	v := mustDurableView(t, dir)

	atg, db, err := rxview.NewRegistrar()
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := rxview.Open(atg, db)
	if err != nil {
		t.Fatal(err)
	}

	// One rule per cataloged point, offset so they fire at different
	// depths of the workload. after= counts hits of that point alone, so
	// the schedule is deterministic for a fixed write sequence.
	spec := strings.Join([]string{
		"wal.slow-io:latency=2ms,every=5,count=2",
		"storage.apply:after=2,count=1",
		"wal.crash-after-fsync:after=6,count=1",
		"wal.append:after=9,count=1",
		"wal.disk-full:after=12,count=1",
		"wal.crash-before-fsync:after=15,count=1",
		"wal.fsync:after=18,count=1",
		"wal.checkpoint:count=2",
	}, ";")
	if err := rxview.EnableChaos(spec, 7); err != nil {
		t.Fatal(err)
	}
	defer rxview.DisableChaos()

	// The ledger: course numbers by verdict class. An indeterminate
	// verdict (DegradedError with Applied true) is "applied in memory but
	// not durable" — recovery checkpoints the in-memory state, so those
	// writes are expected in the recovered view, same as successes.
	var successes, rejects, indeterminate []string
	applyToOracle := func(u rxview.Update) {
		if _, oerr := oracle.Apply(ctx, u); oerr != nil {
			t.Fatalf("oracle apply: %v", oerr)
		}
	}
	const writes = 40
	for i := 0; i < writes; i++ {
		cno := fmt.Sprintf("CH%03d", i)
		if i%10 == 9 {
			// Mixed workload: every tenth write is an atomic group. Atomic
			// commits sink before touching memory, so a WAL fault rolls
			// them back cleanly — never indeterminate.
			tx, err := v.Begin(ctx)
			if err != nil {
				rejects = append(rejects, cno)
				if v.Degraded() {
					recoverDegraded(t, v)
				}
				continue
			}
			u := chaosIns(cno)
			if _, err := tx.Stage(ctx, u); err != nil {
				t.Fatalf("stage %s: %v", cno, err)
			}
			if err := tx.Commit(ctx); err != nil {
				rejects = append(rejects, cno)
			} else {
				successes = append(successes, cno)
				applyToOracle(u)
			}
		} else {
			u := chaosIns(cno)
			rep, err := v.Apply(ctx, u)
			applied := rep != nil && rep.Applied
			if applied {
				applyToOracle(u)
			}
			var de *rxview.DegradedError
			switch {
			case err == nil:
				if !applied {
					t.Fatalf("write %s: nil error but report not applied", cno)
				}
				successes = append(successes, cno)
			case errors.As(err, &de) && de.Applied:
				if !applied {
					t.Fatalf("write %s: indeterminate verdict but report not applied", cno)
				}
				indeterminate = append(indeterminate, cno)
			default:
				// Definite rejection: the error contract guarantees the
				// write did not reach the view.
				if applied {
					t.Fatalf("write %s: rejected (%v) but report says applied", cno, err)
				}
				rejects = append(rejects, cno)
			}
		}
		// Reads interleave with the faulted writes; degraded or not, they
		// must keep serving.
		if i%3 == 0 {
			if _, err := v.Query(ctx, `//course`); err != nil {
				t.Fatalf("read at write %d: %v", i, err)
			}
		}
		if v.Degraded() {
			recoverDegraded(t, v)
		}
	}

	// The schedule must actually have exercised breadth: at least six
	// distinct fault kinds fired.
	fires := rxview.ChaosFires()
	distinct := 0
	for _, n := range fires {
		if n > 0 {
			distinct++
		}
	}
	if distinct < 6 {
		t.Fatalf("only %d distinct fault kinds fired: %v", distinct, fires)
	}
	if len(successes) == 0 || len(rejects) == 0 || len(indeterminate) == 0 {
		t.Fatalf("ledger lacks a verdict class: %d success, %d reject, %d indeterminate",
			len(successes), len(rejects), len(indeterminate))
	}
	t.Logf("soak: %d success, %d reject, %d indeterminate; fires=%v",
		len(successes), len(rejects), len(indeterminate), fires)

	rxview.DisableChaos()
	recoverDegraded(t, v)

	// The soak ends read-write: a fresh write must succeed.
	final := chaosIns("CHFIN")
	if _, err := v.Apply(ctx, final); err != nil {
		t.Fatalf("post-soak write: %v", err)
	}
	applyToOracle(final)
	successes = append(successes, "CHFIN")

	if got, want := fingerprint(t, v), fingerprint(t, oracle); got != want {
		t.Fatalf("live state diverged from oracle:\n%s\nvs\n%s", got, want)
	}
	if err := v.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if err := v.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	v2 := mustDurableView(t, dir)
	defer v2.Close()
	if got, want := fingerprint(t, v2), fingerprint(t, oracle); got != want {
		t.Fatalf("recovered state diverged from oracle:\n%s\nvs\n%s", got, want)
	}
	if err := v2.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// Verdict honesty, spelled out per write: every definite rejection is
	// absent from the recovered state, every acknowledged (and every
	// indeterminate, post-recovery) write is present exactly once.
	for _, cno := range rejects {
		if nodes := mustQuery(t, v2, fmt.Sprintf(`//course[cno=%q]`, cno)); len(nodes) != 0 {
			t.Fatalf("rejected write %s present in recovered state", cno)
		}
	}
	for _, cno := range append(successes, indeterminate...) {
		if nodes := mustQuery(t, v2, fmt.Sprintf(`//course[cno=%q]`, cno)); len(nodes) != 1 {
			t.Fatalf("acknowledged write %s: %d matches in recovered state, want 1", cno, len(nodes))
		}
	}
}

func mustQuery(t *testing.T, v *rxview.View, path string) []rxview.Node {
	t.Helper()
	nodes, err := v.Query(context.Background(), path)
	if err != nil {
		t.Fatalf("query %s: %v", path, err)
	}
	return nodes
}

// TestBeginBatchRefusedAppendDegradedAppliedForTheGroup: a prefix group
// reaches the log in one append, so a refusal is one verdict for all of it —
// the closing call, Commit and Rollback alike, reports the indeterminate
// DegradedError (Applied set): the stages are in memory and in no log.
func TestBeginBatchRefusedAppendDegradedAppliedForTheGroup(t *testing.T) {
	ctx := context.Background()
	for _, closing := range []string{"Commit", "Rollback"} {
		t.Run(closing, func(t *testing.T) {
			v := mustDurableView(t, t.TempDir())
			defer v.Close()
			defer rxview.DisableChaos()
			tx, err := v.BeginBatch()
			if err != nil {
				t.Fatal(err)
			}
			for _, cno := range []string{"CB1", "CB2"} {
				if rep, err := tx.Stage(ctx, chaosIns(cno)); err != nil || !rep.Applied {
					t.Fatalf("stage %s: applied=%v err=%v", cno, rep.Applied, err)
				}
			}
			if err := rxview.EnableChaos("wal.append:count=1", 1); err != nil {
				t.Fatal(err)
			}
			if closing == "Commit" {
				err = tx.Commit(ctx)
			} else {
				err = tx.Rollback()
			}
			var de *rxview.DegradedError
			if !errors.As(err, &de) || !de.Applied {
				t.Fatalf("%s = %v, want DegradedError with Applied=true", closing, err)
			}
			if !v.Degraded() || v.Generation() != 2 {
				t.Fatalf("degraded=%v generation=%d, want a degraded view with both stages in memory", v.Degraded(), v.Generation())
			}
			if _, err := v.BeginBatch(); !errors.As(err, &de) || de.Applied {
				t.Fatalf("BeginBatch while degraded = %v, want the guaranteed-unapplied DegradedError", err)
			}
			rxview.DisableChaos()
			recoverDegraded(t, v)
		})
	}
}

// TestDegradedRecoveryGenerationMonotonic walks the degraded-mode state
// machine one deterministic step at a time: an injected disk-full flips
// the view read-only with an indeterminate verdict, the guard rejects
// further writes without moving the generation, reads keep serving the
// in-memory state, and recovery restores read-write at exactly the
// generation degradation froze — the next write is old+1, never a reset.
func TestDegradedRecoveryGenerationMonotonic(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	v := mustDurableView(t, dir)
	defer rxview.DisableChaos()

	if _, err := v.Apply(ctx, chaosIns("CD100")); err != nil {
		t.Fatal(err)
	}
	if err := rxview.EnableChaos("wal.disk-full:count=1", 1); err != nil {
		t.Fatal(err)
	}

	// The faulted write: applied in memory, refused by the log.
	rep, err := v.Apply(ctx, chaosIns("CD101"))
	var de *rxview.DegradedError
	if !errors.As(err, &de) || !de.Applied {
		t.Fatalf("faulted write: got %v, want DegradedError with Applied=true", err)
	}
	if !errors.Is(err, rxview.ErrDegraded) {
		t.Fatalf("faulted write error does not match ErrDegraded: %v", err)
	}
	if rep == nil || !rep.Applied {
		t.Fatalf("faulted write report = %+v, want applied", rep)
	}
	if !v.Degraded() {
		t.Fatal("view not degraded after disk failure")
	}
	frozen := v.Generation()

	// The guard: typed, guaranteed-unapplied rejection; no generation
	// movement; reads flow.
	_, err = v.Apply(ctx, chaosIns("CD102"))
	if !errors.Is(err, rxview.ErrDegraded) {
		t.Fatalf("write while degraded: got %v, want ErrDegraded", err)
	}
	var guard *rxview.DegradedError
	if !errors.As(err, &guard) || guard.Applied {
		t.Fatalf("guard rejection = %v, want DegradedError with Applied=false", err)
	}
	if g := v.Generation(); g != frozen {
		t.Fatalf("guard rejection moved generation %d → %d", frozen, g)
	}
	if nodes := mustQuery(t, v, `//course[cno="CD101"]`); len(nodes) != 1 {
		t.Fatalf("degraded read: %d matches for in-memory write, want 1", len(nodes))
	}

	if err := v.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	if v.Degraded() {
		t.Fatal("still degraded after Recover")
	}
	if g := v.Generation(); g != frozen {
		t.Fatalf("recovery moved generation %d → %d", frozen, g)
	}

	// Post-recovery write: exactly one step past where degradation froze.
	if _, err := v.Apply(ctx, chaosIns("CD103")); err != nil {
		t.Fatalf("post-recovery write: %v", err)
	}
	if g := v.Generation(); g != frozen+1 {
		t.Fatalf("post-recovery generation %d, want %d", g, frozen+1)
	}
	want := fingerprint(t, v)
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}

	v2 := mustDurableView(t, dir)
	defer v2.Close()
	if g := v2.Generation(); g != frozen+1 {
		t.Fatalf("reopened generation %d, want %d", g, frozen+1)
	}
	if got := fingerprint(t, v2); got != want {
		t.Fatalf("reopened state differs:\n%s\nvs\n%s", got, want)
	}
	if err := v2.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestGenesisCheckpointFaultLeavesDirectoryOpenable: nothing is on disk when
// a fresh directory's checkpoint 0 is written, so a genesis that fails —
// here by an injected wal.checkpoint fault, in production by a full disk or
// a crash — must leave a directory the next Open treats as fresh. A segment
// created ahead of that checkpoint would be refused as a corrupt log until
// someone deleted it by hand.
func TestGenesisCheckpointFaultLeavesDirectoryOpenable(t *testing.T) {
	dir := t.TempDir()
	if err := rxview.EnableChaos("wal.checkpoint:count=1", 1); err != nil {
		t.Fatal(err)
	}
	defer rxview.DisableChaos()
	atg, db, err := rxview.NewRegistrar()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rxview.Open(atg, db, rxview.WithDurability(dir)); err == nil || !strings.Contains(err.Error(), "checkpoint") {
		t.Fatalf("genesis under the fault: %v, want the checkpoint's failure", err)
	}
	if ckpts, segs := walShape(t, dir); len(ckpts)+len(segs) != 0 {
		t.Fatalf("a failed genesis left checkpoints %v, segments %v", ckpts, segs)
	}

	v := mustDurableView(t, dir) // the fault is spent: genesis runs again
	defer v.Close()
	if v.Generation() != 0 {
		t.Fatalf("generation %d after the second genesis, want 0", v.Generation())
	}
	insertStudent(t, v, "S901")
	rv := mustDurableView(t, copyWALDir(t, dir))
	defer rv.Close()
	if rv.Generation() != 1 || len(mustQuery(t, rv, `//student[ssn="S901"]`)) == 0 {
		t.Fatalf("reopened at generation %d without the acknowledged insert", rv.Generation())
	}
}

// TestDegradedRecoverCheckpointFaultLeavesNoSegmentAhead: a refused append
// leaves memory one generation ahead of the log, and the Recover that would
// seal memory fails at its checkpoint. The directory must then hold no
// segment named for the generation only memory reached: the process is
// restarted while degraded, recovers to the generation on disk, serves, and
// is killed mid-append — the torn record is in the physically last segment
// and is truncated, where an empty later segment would have had the log
// refused as corrupt. The view that stayed up recovers at the next attempt.
func TestDegradedRecoverCheckpointFaultLeavesNoSegmentAhead(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	v := mustDurableView(t, dir)
	defer v.Close()
	defer rxview.DisableChaos()
	if _, err := v.Apply(ctx, chaosIns("CF100")); err != nil {
		t.Fatal(err)
	}
	if err := rxview.EnableChaos("wal.disk-full:count=1;wal.checkpoint:count=1", 1); err != nil {
		t.Fatal(err)
	}
	var de *rxview.DegradedError
	if _, err := v.Apply(ctx, chaosIns("CF101")); !errors.As(err, &de) || !de.Applied {
		t.Fatalf("faulted write: %v, want DegradedError with Applied=true", err)
	}
	if err := v.Recover(); err == nil || !v.Degraded() {
		t.Fatalf("Recover under the checkpoint fault: %v (degraded=%v)", err, v.Degraded())
	}
	if ckpts, segs := walShape(t, dir); fmt.Sprint(ckpts, segs) != "[0] [0]" {
		t.Fatalf("after the failed Recover: checkpoints %v, segments %v", ckpts, segs)
	}
	rxview.DisableChaos()

	// Restarted while degraded: the indeterminate write is gone with the
	// memory that held it, and two more are acknowledged.
	image := copyWALDir(t, dir)
	rv := mustDurableView(t, image)
	if rv.Generation() != 1 || len(mustQuery(t, rv, `//course[cno="CF101"]`)) != 0 {
		t.Fatalf("restart recovered generation %d", rv.Generation())
	}
	for _, cno := range []string{"CF102", "CF103"} {
		if _, err := rv.Apply(ctx, chaosIns(cno)); err != nil {
			t.Fatal(err)
		}
	}
	torn := copyWALDir(t, image)
	if err := rv.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := rxview.InspectWAL(torn)
	if err != nil {
		t.Fatal(err)
	}
	last := info.Segments[len(info.Segments)-1]
	if last.Start != 1 || len(last.Records) != 2 {
		t.Fatalf("last segment starts at %d with %d records, want the active one: 1, 2", last.Start, len(last.Records))
	}
	b, err := os.ReadFile(last.Path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(last.Path, b[:len(b)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	tv := mustDurableView(t, torn)
	defer tv.Close()
	if tv.Generation() != 2 || len(mustQuery(t, tv, `//course[cno="CF102"]`)) != 1 {
		t.Fatalf("after the torn tail: generation %d, want 2 with CF102", tv.Generation())
	}
	if err := tv.CheckConsistency(); err != nil {
		t.Fatal(err)
	}

	// Meanwhile the view that was never restarted heals on the next probe,
	// and the write it held in memory becomes durable after all.
	if err := v.Recover(); err != nil || v.Degraded() {
		t.Fatalf("second Recover: %v (degraded=%v)", err, v.Degraded())
	}
	if ckpts, segs := walShape(t, dir); fmt.Sprint(ckpts, segs) != "[0 2] [0 2]" {
		t.Fatalf("after Recover: checkpoints %v, segments %v", ckpts, segs)
	}
	hv := mustDurableView(t, copyWALDir(t, dir))
	defer hv.Close()
	if hv.Generation() != 2 || len(mustQuery(t, hv, `//course[cno="CF101"]`)) != 1 {
		t.Fatalf("healed view reopened at generation %d without CF101", hv.Generation())
	}
}

// TestDryRunDegradedAnswersAsApply: after a refused append has degraded the
// view, a dry run refuses the next insert exactly as Apply does — the
// guaranteed-unapplied DegradedError — instead of answering applied.
func TestDryRunDegradedAnswersAsApply(t *testing.T) {
	ctx := context.Background()
	v := mustDurableView(t, t.TempDir())
	defer v.Close()
	defer rxview.DisableChaos()
	if err := rxview.EnableChaos("wal.append:count=1", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Apply(ctx, chaosIns("DR1")); !errors.Is(err, rxview.ErrDegraded) {
		t.Fatalf("faulted Apply = %v, want ErrDegraded", err)
	}
	rxview.DisableChaos()

	next := chaosIns("DR2")
	dry, dryErr := v.DryRun(ctx, next)
	rep, err := v.Apply(ctx, next)
	var de *rxview.DegradedError
	if !errors.Is(dryErr, rxview.ErrDegraded) || !errors.As(dryErr, &de) || de.Applied {
		t.Fatalf("DryRun on a degraded view = %v, want the guaranteed-unapplied DegradedError", dryErr)
	}
	if dryErr.Error() != err.Error() || dry.Applied || rep.Applied {
		t.Errorf("DryRun: applied=%v err=%v; Apply: applied=%v err=%v", dry.Applied, dryErr, rep.Applied, err)
	}
	recoverDegraded(t, v)
}
