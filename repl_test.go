package rxview_test

// Round-trip tests of the public replication API: a durable primary's
// ReplSource streamed into a Replica must reproduce the primary's exact
// state — cold catch-up from WAL files, hot records from the live tail,
// checkpoint restore, and the gap-refusal contract.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"
	"time"

	"rxview"
)

// mustReplica opens an empty follower over a fresh registrar.
func mustReplica(t *testing.T, opts ...rxview.Option) *rxview.Replica {
	t.Helper()
	atg, db, err := rxview.NewRegistrar()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rxview.OpenReplica(atg, db, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// pull drains one stream poll into a single wire buffer, simulating the
// bytes a follower reads off an HTTP response body.
func pull(t *testing.T, src *rxview.ReplSource, from uint64) []byte {
	t.Helper()
	var wire bytes.Buffer
	err := src.Stream(context.Background(), from, 20*time.Millisecond,
		func(_ uint64, frame []byte) error {
			wire.Write(frame)
			return nil
		})
	if err != nil {
		t.Fatalf("Stream(from=%d): %v", from, err)
	}
	return wire.Bytes()
}

// replay decodes a wire buffer and applies every record to the replica.
func replay(t *testing.T, rep *rxview.Replica, wire []byte) {
	t.Helper()
	fr := rxview.NewReplFrameReader(bytes.NewReader(wire))
	for {
		rec, err := fr.Next()
		if errors.Is(err, io.EOF) {
			return
		}
		if err != nil {
			t.Fatalf("decode stream: %v", err)
		}
		if err := rep.ApplyRecord(rec); err != nil {
			t.Fatalf("apply generation %d: %v", rec.Generation(), err)
		}
	}
}

func TestReplicaRoundTrip(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	primary := mustDurableView(t, dir, rxview.WithForceSideEffects())
	defer primary.Close()

	// History before the source exists is served from the WAL files.
	if _, err := primary.Apply(ctx, rxview.Insert(`.`, "course", rxview.Str("CS900"), rxview.Str("Repl"))); err != nil {
		t.Fatal(err)
	}
	src, err := primary.ReplSource()
	if err != nil {
		t.Fatal(err)
	}
	// History after the source exists flows through the live tail, including
	// a shared-subtree insert, an atomic group, and a cascading delete.
	if _, err := primary.Apply(ctx, rxview.Insert(`//course[cno="CS900"]/takenBy`, "student", rxview.Str("S90"), rxview.Str("Flo"))); err != nil {
		t.Fatal(err)
	}
	if _, err := primary.Apply(ctx, rxview.Insert(`course[cno="CS650"]//course[cno="CS320"]/prereq`,
		"course", rxview.Str("CS901"), rxview.Str("Shared"))); err != nil {
		t.Fatal(err)
	}
	if _, err := primary.Batch(ctx,
		rxview.Insert(`//course[cno="CS900"]/takenBy`, "student", rxview.Str("S91"), rxview.Str("Gus")),
		rxview.Delete(`//course[cno="CS900"]/takenBy/student[sno="S90"]`),
	); err != nil {
		t.Fatal(err)
	}
	if _, err := primary.Apply(ctx, rxview.Delete(`//course[cno="CS901"]`)); err != nil {
		t.Fatal(err)
	}
	if src.Generation() != primary.Generation() {
		t.Fatalf("source watermark %d, primary generation %d", src.Generation(), primary.Generation())
	}

	// Follower: restore the genesis checkpoint, then replay the stream.
	ckGen, state, err := src.CheckpointBytes()
	if err != nil {
		t.Fatal(err)
	}
	rep := mustReplica(t)
	if err := rep.Restore(ckGen, state); err != nil {
		t.Fatalf("restore at %d: %v", ckGen, err)
	}
	replay(t, rep, pull(t, src, rep.Generation()))

	if rep.Generation() != primary.Generation() {
		t.Fatalf("follower at generation %d, primary at %d", rep.Generation(), primary.Generation())
	}
	if got, want := fingerprint(t, rep.View()), fingerprint(t, primary); got != want {
		t.Fatalf("follower state differs:\n%s\nvs\n%s", got, want)
	}
	if err := rep.View().CheckConsistency(); err != nil {
		t.Fatalf("replayed follower inconsistent: %v", err)
	}
}

func TestReplicaRestoresFromLaterCheckpoint(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	primary := mustDurableView(t, dir)
	defer primary.Close()
	src, err := primary.ReplSource()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := primary.Apply(ctx, rxview.Insert(`.`, "course", rxview.Str("CS910"), rxview.Str("Ckpt"))); err != nil {
		t.Fatal(err)
	}
	if err := primary.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := primary.Apply(ctx, rxview.Insert(`//course[cno="CS910"]/takenBy`, "student", rxview.Str("S92"), rxview.Str("Hal"))); err != nil {
		t.Fatal(err)
	}

	ckGen, state, err := src.CheckpointBytes()
	if err != nil {
		t.Fatal(err)
	}
	if ckGen != 1 {
		t.Fatalf("newest checkpoint at generation %d, want 1", ckGen)
	}
	rep := mustReplica(t)
	if err := rep.Restore(ckGen, state); err != nil {
		t.Fatal(err)
	}
	if rep.Generation() != 1 {
		t.Fatalf("restored follower at generation %d, want 1", rep.Generation())
	}
	replay(t, rep, pull(t, src, rep.Generation()))
	if got, want := fingerprint(t, rep.View()), fingerprint(t, primary); got != want {
		t.Fatalf("follower state differs:\n%s\nvs\n%s", got, want)
	}
}

func TestReplicaRefusesGapsAndDurability(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	primary := mustDurableView(t, dir)
	defer primary.Close()
	src, err := primary.ReplSource()
	if err != nil {
		t.Fatal(err)
	}
	for _, cno := range []string{"CS920", "CS921", "CS922"} {
		if _, err := primary.Apply(ctx, rxview.Insert(`.`, "course", rxview.Str(cno), rxview.Str("Gap"))); err != nil {
			t.Fatal(err)
		}
	}

	// Decode the full stream but apply only from the second record: the
	// replica (at generation 0) must refuse the gap with the checkpoint
	// taxonomy rather than replay into a wrong state.
	fr := rxview.NewReplFrameReader(bytes.NewReader(pull(t, src, 0)))
	first, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	second, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	rep := mustReplica(t)
	if err := rep.ApplyRecord(second); !errors.Is(err, rxview.ErrCheckpointMismatch) {
		t.Fatalf("gap apply error = %v, want ErrCheckpointMismatch", err)
	}
	if rep.Generation() != 0 {
		t.Fatalf("refused record advanced the follower to %d", rep.Generation())
	}
	if err := rep.ApplyRecord(first); err != nil {
		t.Fatalf("contiguous record refused: %v", err)
	}

	// A non-durable view cannot stream; a replica cannot be durable.
	plain := mustView(t)
	if _, err := plain.ReplSource(); err == nil {
		t.Fatal("ReplSource on a non-durable view succeeded")
	}
	atg, db, err := rxview.NewRegistrar()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rxview.OpenReplica(atg, db, rxview.WithDurability(t.TempDir())); err == nil {
		t.Fatal("durable replica was allowed")
	}
}

// TestReplSourceSeesOnlyAcceptedAppends: the commit sink is the one hook on
// the commit path — append, then publish what the append wrote — so a
// follower can be sent exactly the commits the log accepted. An append the
// log refuses (its fsync fails) moves neither the source's watermark nor a
// stream; an append the log accepts is published even when accepting it is
// the last thing that log does (crash-after-fsync: the record is durable,
// the log is dead).
func TestReplSourceSeesOnlyAcceptedAppends(t *testing.T) {
	ctx := context.Background()
	defer rxview.DisableChaos()
	open := func() (*rxview.View, *rxview.ReplSource) {
		v := mustDurableView(t, t.TempDir())
		src, err := v.ReplSource()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := v.Apply(ctx, chaosIns("CR1")); err != nil {
			t.Fatal(err)
		}
		if src.Generation() != 1 || len(pull(t, src, 0)) == 0 {
			t.Fatalf("an accepted commit was not published: source at generation %d", src.Generation())
		}
		return v, src
	}

	v, src := open()
	if err := rxview.EnableChaos("wal.fsync:count=1", 1); err != nil {
		t.Fatal(err)
	}
	_, err := v.Apply(ctx, chaosIns("CR2"))
	rxview.DisableChaos()
	if !errors.Is(err, rxview.ErrDegraded) {
		t.Fatalf("write under a failing fsync: %v, want ErrDegraded", err)
	}
	if got := src.Generation(); got != 1 {
		t.Fatalf("the refused commit moved the source to generation %d", got)
	}
	if wire := pull(t, src, 1); len(wire) != 0 {
		t.Fatalf("a stream emitted %d bytes for a commit the log refused", len(wire))
	}
	recoverDegraded(t, v)
	v.Close()

	v, src = open()
	defer v.Close()
	if err := rxview.EnableChaos("wal.crash-after-fsync:count=1", 1); err != nil {
		t.Fatal(err)
	}
	_, err = v.Apply(ctx, chaosIns("CR2"))
	rxview.DisableChaos()
	if err != nil || !v.Degraded() {
		t.Fatalf("write whose append is accepted by a log that then dies: err=%v degraded=%v, want an acknowledged write on a degraded view", err, v.Degraded())
	}
	if got := src.Generation(); got != 2 {
		t.Fatalf("the accepted commit left the source at generation %d, want 2", got)
	}
	rec, err := rxview.NewReplFrameReader(bytes.NewReader(pull(t, src, 1))).Next()
	if err != nil || rec.Generation() != 2 {
		t.Fatalf("stream past generation 1: record for generation %d, err %v; want the accepted commit", rec.Generation(), err)
	}
	recoverDegraded(t, v)
}
