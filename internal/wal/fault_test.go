package wal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"rxview/internal/fault"
)

// openForAppend opens a fresh log in a temp dir with its boot checkpoint
// written, ready for appends.
func openForAppend(t *testing.T, pol SyncPolicy) *Log {
	t.Helper()
	dir := t.TempDir()
	l, boot, err := Open(dir, Options{Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	if boot != nil {
		t.Fatal("fresh dir returned boot state")
	}
	if err := l.WriteCheckpoint(0, ckptBuf("state-0")); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func armed(t *testing.T, seed int64, rules ...fault.Rule) *fault.Plan {
	t.Helper()
	p, err := fault.NewPlan(seed, rules...)
	if err != nil {
		t.Fatal(err)
	}
	fault.Install(p)
	t.Cleanup(fault.Uninstall)
	return p
}

// TestDiskFailureRoundTrip: an injected fsync failure surfaces as a typed
// *DiskFailureError matching ErrDiskFailure under errors.Is, attributing
// the file and the failing batch's offset.
func TestDiskFailureRoundTrip(t *testing.T) {
	l := openForAppend(t, SyncAlways)
	if err := l.Append([]Record{rec(1)}); err != nil {
		t.Fatal(err)
	}
	wantOff := l.size

	armed(t, 1, fault.Rule{Point: fault.WALFsync, Count: 1})
	err := l.Append([]Record{rec(2)})
	if err == nil {
		t.Fatal("append with injected fsync failure succeeded")
	}
	if !errors.Is(err, ErrDiskFailure) {
		t.Fatalf("error does not match ErrDiskFailure: %v", err)
	}
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("error does not unwrap to the injected cause: %v", err)
	}
	var dfe *DiskFailureError
	if !errors.As(err, &dfe) {
		t.Fatalf("errors.As(*DiskFailureError) failed: %v", err)
	}
	if dfe.Op != "fsync" || dfe.Offset != wantOff || dfe.Path == "" {
		t.Fatalf("attribution = %+v, want op=fsync offset=%d", dfe, wantOff)
	}

	// The log is dead now: the next append fails fast with the cause.
	if err := l.Append([]Record{rec(2)}); !errors.Is(err, ErrDiskFailure) {
		t.Fatalf("append on dead log: %v", err)
	}
	if l.Failed() == nil {
		t.Fatal("Failed() nil on a dead log")
	}
}

// TestFailedAppendNeverReplays: records whose append failed (fsync fault,
// crash-before-fsync) must be absent from a subsequent recovery, while
// records from successful appends survive — the durable-before-verdict
// contract under faults.
func TestFailedAppendNeverReplays(t *testing.T) {
	for _, point := range []fault.Point{fault.WALFsync, fault.CrashBeforeFsync} {
		t.Run(point.String(), func(t *testing.T) {
			l := openForAppend(t, SyncAlways)
			dir := l.Dir()
			if err := l.Append([]Record{rec(1)}); err != nil {
				t.Fatal(err)
			}
			armed(t, 1, fault.Rule{Point: point, Count: 1})
			if err := l.Append([]Record{rec(2)}); err == nil {
				t.Fatal("injected failure did not fail the append")
			}
			fault.Uninstall()
			l.Close()

			_, boot, err := Open(dir, Options{Policy: SyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			if boot == nil {
				t.Fatal("no boot state")
			}
			for _, r := range boot.Records {
				if r.Gen == 2 {
					t.Fatal("rejected record resurfaced in recovery")
				}
			}
			if len(boot.Records) != 1 || boot.Records[0].Gen != 1 {
				t.Fatalf("recovered records = %+v, want exactly gen 1", boot.Records)
			}
		})
	}
}

// TestCrashAfterFsyncKeepsVerdict: the crash-after-fsync point must NOT
// fail the append whose record is already durable — only later appends die.
func TestCrashAfterFsyncKeepsVerdict(t *testing.T) {
	l := openForAppend(t, SyncAlways)
	dir := l.Dir()
	armed(t, 1, fault.Rule{Point: fault.CrashAfterFsync, Count: 1})
	if err := l.Append([]Record{rec(1)}); err != nil {
		t.Fatalf("crash-after-fsync failed the durable append: %v", err)
	}
	if l.Failed() == nil {
		t.Fatal("log not dead after crash-after-fsync")
	}
	if err := l.Append([]Record{rec(2)}); !errors.Is(err, ErrDiskFailure) {
		t.Fatalf("append after crash-after-fsync: %v", err)
	}
	fault.Uninstall()
	l.Close() // Close on a dead log; recovery below must still see gen 1

	_, boot, err := Open(dir, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if boot == nil || len(boot.Records) != 1 || boot.Records[0].Gen != 1 {
		t.Fatalf("recovered records = %+v, want exactly the durable gen 1", boot)
	}
}

// TestReopenRevivesDeadLog: Reopen + WriteCheckpoint is the degraded-mode
// recovery path — after it the log accepts appends again and a fresh
// recovery sees the post-recovery history.
func TestReopenRevivesDeadLog(t *testing.T) {
	l := openForAppend(t, SyncAlways)
	dir := l.Dir()
	if err := l.Append([]Record{rec(1)}); err != nil {
		t.Fatal(err)
	}
	armed(t, 1, fault.Rule{Point: fault.WALFsync, Count: 1})
	if err := l.Append([]Record{rec(2)}); err == nil {
		t.Fatal("injected failure did not fail the append")
	}
	fault.Uninstall()

	if _, err := l.Reopen(); err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	if l.Failed() != nil {
		t.Fatalf("log still dead after Reopen: %v", l.Failed())
	}
	// Like boot: the caller checkpoints the authoritative state (here,
	// generation 1) to re-establish the active segment.
	if err := l.WriteCheckpoint(1, ckptBuf("state-1")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]Record{rec(2)}); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	l.Close()

	_, boot, err := Open(dir, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if boot == nil || boot.Gen != 1 || len(boot.Records) != 1 || boot.Records[0].Gen != 2 {
		t.Fatalf("recovered to %+v, want checkpoint 1 + record 2", boot)
	}
}

// TestCheckpointWriteFault: an injected checkpoint failure is typed, names
// the target file, and leaves the log alive (appends keep working — the
// epoch just was not sealed).
func TestCheckpointWriteFault(t *testing.T) {
	l := openForAppend(t, SyncAlways)
	if err := l.Append([]Record{rec(1)}); err != nil {
		t.Fatal(err)
	}
	armed(t, 1, fault.Rule{Point: fault.CheckpointWrite, Count: 1})
	err := l.WriteCheckpoint(1, ckptBuf("state-1"))
	if !errors.Is(err, ErrDiskFailure) {
		t.Fatalf("checkpoint fault: %v", err)
	}
	var dfe *DiskFailureError
	if !errors.As(err, &dfe) || dfe.Op != "checkpoint" || dfe.Offset != -1 {
		t.Fatalf("attribution = %+v", dfe)
	}
	if want := filepath.Join(l.Dir(), ckptName(1)); dfe.Path != want {
		t.Fatalf("path = %q, want %q", dfe.Path, want)
	}
	if _, segs := listDir(l.Dir()); len(segs) != 1 {
		t.Fatalf("segments %v: a synchronous checkpoint rotated before its file existed", segs)
	}
	if err := l.Append([]Record{rec(2)}); err != nil {
		t.Fatalf("append after failed checkpoint: %v", err)
	}
}

// TestDiskFullAndWriteFaults: the remaining error points reject the append
// before anything is written, so the log survives without truncation.
func TestDiskFullAndWriteFaults(t *testing.T) {
	l := openForAppend(t, SyncAlways)
	armed(t, 1,
		fault.Rule{Point: fault.WALAppend, Count: 1},
		fault.Rule{Point: fault.WALDiskFull, Count: 1})
	if err := l.Append([]Record{rec(1)}); !errors.Is(err, ErrDiskFailure) {
		t.Fatalf("write fault: %v", err)
	}
	if err := l.Append([]Record{rec(1)}); !errors.Is(err, ErrDiskFailure) {
		t.Fatalf("disk-full fault: %v", err)
	}
	// Both fired before write(2): the log itself is still healthy.
	if l.Failed() != nil {
		t.Fatalf("pre-write faults killed the log: %v", l.Failed())
	}
	if err := l.Append([]Record{rec(1)}); err != nil {
		t.Fatalf("append after exhausted faults: %v", err)
	}
}

// TestGenesisCheckpointFaultLeavesAFreshDirectory: nothing is on disk at
// genesis, so the checkpoint file comes before the segment — a genesis whose
// checkpoint fails leaves neither, and the next Open finds a fresh directory
// and runs genesis again. Segment first would leave wal-0 without a
// checkpoint, a shape Open refuses.
func TestGenesisCheckpointFaultLeavesAFreshDirectory(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Policy: SyncAlways})
	armed(t, 1, fault.Rule{Point: fault.CheckpointWrite, Count: 1})
	if err := l.WriteCheckpoint(0, ckptBuf("s0")); !errors.Is(err, ErrDiskFailure) {
		t.Fatalf("genesis checkpoint under the fault: %v", err)
	}
	if ckpts, segs := listDir(dir); len(ckpts)+len(segs) != 0 {
		t.Fatalf("a failed genesis left checkpoints %v, segments %v", ckpts, segs)
	}
	l.Close()

	l, boot := mustOpen(t, dir, Options{Policy: SyncAlways})
	defer l.Close()
	if boot != nil {
		t.Fatalf("reopen after a failed genesis found state: %+v", boot)
	}
	if err := l.WriteCheckpoint(0, ckptBuf("s0")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]Record{rec(1)}); err != nil {
		t.Fatal(err)
	}
}

// TestFailedRecoveryCheckpointFaultLeavesNoSegmentAhead: after a refused
// append memory is ahead of the log, so the checkpoint that ends degraded
// mode writes its file before it rotates. When that file fails, the
// directory is as the failed append left it: no empty segment named for a
// generation the records do not reach. A restart then rotates at the
// generation on disk, its segment is the physically last one, and a torn
// tail in it is truncated — not judged by the rule for sealed segments.
func TestFailedRecoveryCheckpointFaultLeavesNoSegmentAhead(t *testing.T) {
	l := openForAppend(t, SyncAlways)
	dir := l.Dir()
	for g := uint64(1); g <= 2; g++ {
		if err := l.Append([]Record{rec(g)}); err != nil {
			t.Fatal(err)
		}
	}
	armed(t, 1, fault.Rule{Point: fault.WALAppend, Count: 1},
		fault.Rule{Point: fault.CheckpointWrite, Count: 1})
	// Generation 3 is applied in memory and refused by the log.
	if err := l.Append([]Record{rec(3)}); !errors.Is(err, ErrDiskFailure) {
		t.Fatalf("append under the fault: %v", err)
	}
	if _, err := l.Reopen(); err != nil {
		t.Fatal(err)
	}
	if err := l.WriteCheckpoint(3, ckptBuf("s3")); !errors.Is(err, ErrDiskFailure) {
		t.Fatalf("recovery checkpoint under the fault: %v", err)
	}
	if ckpts, segs := listDir(dir); len(ckpts) != 1 || len(segs) != 1 || segs[0] != 0 {
		t.Fatalf("a failed recovery checkpoint left checkpoints %v, segments %v", ckpts, segs)
	}
	fault.Uninstall()

	// The process is restarted while degraded: recovery reaches generation
	// 2, the new segment takes an acknowledged record, and the crash tears
	// the one after it.
	l2, boot := mustOpen(t, dir, Options{Policy: SyncAlways})
	if boot.Gen != 0 || len(boot.Records) != 2 {
		t.Fatalf("restart recovered checkpoint %d + %d records, want 0 + 2", boot.Gen, len(boot.Records))
	}
	if err := l2.Seal(2); err != nil {
		t.Fatal(err)
	}
	if err := l2.Append([]Record{rec(3)}); err != nil {
		t.Fatal(err)
	}
	if err := l2.Append([]Record{rec(4)}); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	_, segs := listDir(dir)
	last := filepath.Join(dir, segName(segs[len(segs)-1]))
	if segs[len(segs)-1] != 2 {
		t.Fatalf("segments %v: the active segment is not the last one", segs)
	}
	b, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(last, b[:len(b)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	l3, boot := mustOpen(t, dir, Options{Policy: SyncAlways})
	defer l3.Close()
	if g := recordGens(boot.Records); len(g) != 3 || g[2] != 3 {
		t.Fatalf("after the torn tail: generations %v, want 1 2 3", g)
	}
	if len(boot.Warnings) != 1 {
		t.Fatalf("warnings %q, want the one truncation", boot.Warnings)
	}
}
