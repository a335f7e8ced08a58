package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// stateOf is a checkpoint state of n bytes that no other generation writes.
func stateOf(gen uint64, n int) string {
	b := bytes.Repeat([]byte{byte('a' + gen%26)}, n)
	copy(b, fmt.Sprintf("gen %d;", gen))
	return string(b)
}

// checkpointAt appends the records up to gen and writes ckpt-<gen> holding
// state.
func checkpointAt(t *testing.T, l *Log, from, gen uint64, state string) {
	t.Helper()
	for g := from + 1; g <= gen; g++ {
		if err := l.Append([]Record{rec(g)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.WriteCheckpoint(gen, ckptBuf(state)); err != nil {
		t.Fatal(err)
	}
}

func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

func mustStat(t *testing.T, path string) os.FileInfo {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi
}

// TestCheckpointRecyclesTheRetiredFile: from the first prune on, every
// checkpoint is written into the file the prune before it retired — the same
// inode — and lands as exactly its frame whether its state is shorter or
// longer than what the file held; the directory at rest holds the Keep
// newest checkpoints, their segments and ckpt.next, nothing else.
func TestCheckpointRecyclesTheRetiredFile(t *testing.T) {
	// State sizes that, recycled Keep + 1 checkpoints later, both shrink and
	// grow the file for every Keep below.
	sizes := []int{9000, 300, 20000, 50, 4000, 12000, 700, 30000, 10, 6000, 2500, 15000}
	for _, keep := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("keep=%d", keep), func(t *testing.T) {
			dir := t.TempDir()
			next := filepath.Join(dir, nextName)
			l, _ := mustOpen(t, dir, Options{Policy: SyncAlways, Keep: keep})
			defer l.Close()
			checkpointAt(t, l, 0, 0, stateOf(0, sizes[0]))
			var shrunk, grew int
			for i, gen := 1, uint64(0); i < len(sizes); i++ {
				prev := gen
				gen += 2
				ckpts, _ := listDir(dir)
				retiring := len(ckpts)+1 > keep                               // this checkpoint's prune retires one
				recycled, recycledErr := os.Stat(next)                        // the file this checkpoint is written into
				oldest := mustStat(t, filepath.Join(dir, ckptName(ckpts[0]))) // the first one its prune retires
				if (recycledErr == nil) != (i > keep) {
					t.Fatalf("checkpoint %d: ckpt.next present = %v before the %d'th checkpoint at Keep %d", gen, recycledErr == nil, i+1, keep)
				}
				state := stateOf(gen, sizes[i])
				checkpointAt(t, l, prev, gen, state)
				path := filepath.Join(dir, ckptName(gen))
				landed := mustStat(t, path)
				if recycledErr == nil {
					if !os.SameFile(landed, recycled) {
						t.Fatalf("checkpoint %d was not written into the retired file", gen)
					}
					switch frame := frameLen(8) + frameLen(len(state)) + len(ckptMagic); {
					case int64(frame) < recycled.Size():
						shrunk++
					case int64(frame) > recycled.Size():
						grew++
					}
				}
				got, err := ReadCheckpoint(path, gen)
				if err != nil || string(got) != state {
					t.Fatalf("checkpoint %d of %d bytes: %d bytes read back, %v", gen, len(state), len(got), err)
				}
				if retiring {
					if fi, err := os.Stat(next); err != nil || !os.SameFile(fi, oldest) {
						t.Fatalf("checkpoint %d: ckpt.next is not the checkpoint its prune retired (%v)", gen, err)
					}
				}
			}
			if shrunk == 0 || grew == 0 {
				t.Fatalf("%d recycled files shrank and %d grew: the sizes exercise only one way", shrunk, grew)
			}
			ckpts, _ := listDir(dir)
			want := []string{nextName}
			for _, g := range ckpts {
				want = append(want, ckptName(g), segName(g))
			}
			sort.Strings(want)
			if got := dirNames(t, dir); len(ckpts) != keep || !reflect.DeepEqual(got, want) {
				t.Fatalf("the directory holds %v, want %v", got, want)
			}
		})
	}
}

// TestFailedCheckpointWriteRemovesNext: a checkpoint file that fails after
// it was written into ckpt.next takes ckpt.next with it, as a failed temp
// file was removed, and the log goes on to land the next checkpoint.
func TestFailedCheckpointWriteRemovesNext(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Policy: SyncAlways, Keep: 1})
	defer l.Close()
	checkpointAt(t, l, 0, 0, stateOf(0, 500))
	checkpointAt(t, l, 0, 2, stateOf(2, 500))
	next := filepath.Join(dir, nextName)
	mustStat(t, next)
	// A directory with an entry in it where the file is to be renamed to.
	blocker := filepath.Join(dir, ckptName(4))
	if err := os.MkdirAll(filepath.Join(blocker, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	for g := uint64(3); g <= 4; g++ {
		if err := l.Append([]Record{rec(g)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.WriteCheckpoint(4, ckptBuf(stateOf(4, 500))); err == nil {
		t.Fatal("a checkpoint renamed over a directory landed")
	}
	if _, err := os.Stat(next); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a failed checkpoint write left ckpt.next (stat: %v)", err)
	}
	if l.Failed() != nil {
		t.Fatalf("a failed checkpoint file killed the log: %v", l.Failed())
	}
	if err := os.RemoveAll(blocker); err != nil {
		t.Fatal(err)
	}
	checkpointAt(t, l, 4, 5, stateOf(5, 500))
	if got, err := ReadCheckpoint(filepath.Join(dir, ckptName(5)), 5); err != nil || string(got) != stateOf(5, 500) {
		t.Fatalf("the checkpoint after the failure: %v", err)
	}
	if ckpts, segs := listDir(dir); !reflect.DeepEqual(ckpts, []uint64{5}) || !reflect.DeepEqual(segs, []uint64{5}) {
		t.Fatalf("checkpoints %v, segments %v after the next checkpoint", ckpts, segs)
	}
}

// TestBootLeavesGarbageNextToBeOverwritten: whatever a crashed write left in
// ckpt.next is no finding at boot, and the next checkpoint is written into
// that file and lands as exactly its frame.
func TestBootLeavesGarbageNextToBeOverwritten(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Policy: SyncOff})
	checkpointAt(t, l, 0, 0, stateOf(0, 100))
	if err := l.Append([]Record{rec(1)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Half of a checkpoint frame, then bytes that are none.
	garbage := frameCheckpoint(9, ckptBuf(stateOf(9, 4000)))[:2000]
	garbage = append(garbage, bytes.Repeat([]byte{0xff}, 6000)...)
	next := filepath.Join(dir, nextName)
	if err := os.WriteFile(next, garbage, 0o600); err != nil {
		t.Fatal(err)
	}
	before := mustStat(t, next)
	l, boot := mustOpen(t, dir, Options{Policy: SyncOff})
	defer l.Close()
	if boot.Gen != 0 || !reflect.DeepEqual(recordGens(boot.Records), []uint64{1}) || len(boot.Warnings) != 0 || len(boot.Unreadable) != 0 {
		t.Fatalf("boot over a garbage ckpt.next: %+v", boot)
	}
	if err := l.Seal(1); err != nil {
		t.Fatal(err)
	}
	checkpointAt(t, l, 1, 2, stateOf(2, 300))
	path := filepath.Join(dir, ckptName(2))
	if !os.SameFile(mustStat(t, path), before) {
		t.Fatal("the checkpoint after boot was not written into ckpt.next")
	}
	if got, err := ReadCheckpoint(path, 2); err != nil || string(got) != stateOf(2, 300) {
		t.Fatalf("the checkpoint written over the garbage: %v", err)
	}
}

// TestStaleReaderOfRecycledCheckpointRefused: a reader that opened a
// checkpoint before it was retired and recycled — by descriptor, or by a
// name that still reaches the inode — reads an error, never the state of the
// generation that overwrote it, whether the overwrite came before its read
// or in the middle of it, and whatever the new state's length.
func TestStaleReaderOfRecycledCheckpointRefused(t *testing.T) {
	const oldLen = 3000
	for _, newLen := range []int{oldLen, oldLen / 3, 3 * oldLen} {
		for _, cut := range []int{0, oldLen / 2} {
			t.Run(fmt.Sprintf("state %d bytes, %d read before", newLen, cut), func(t *testing.T) {
				dir := t.TempDir()
				l, _ := mustOpen(t, dir, Options{Policy: SyncOff, Keep: 1})
				defer l.Close()
				checkpointAt(t, l, 0, 0, stateOf(0, oldLen))
				path := filepath.Join(dir, ckptName(0))
				f, err := os.Open(path)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				elsewhere := filepath.Join(t.TempDir(), ckptName(0))
				if err := os.Link(path, elsewhere); err != nil {
					t.Fatal(err)
				}
				head := make([]byte, cut)
				if _, err := io.ReadFull(f, head); err != nil {
					t.Fatal(err)
				}
				checkpointAt(t, l, 0, 1, stateOf(1, 100))    // retires ckpt-0 to ckpt.next
				checkpointAt(t, l, 1, 2, stateOf(2, newLen)) // and writes ckpt-2 into it
				if fi := mustStat(t, filepath.Join(dir, ckptName(2))); !os.SameFile(fi, mustStat(t, elsewhere)) {
					t.Fatal("ckpt-2 is not the recycled ckpt-0")
				}
				tail, err := io.ReadAll(f)
				if err != nil {
					t.Fatal(err)
				}
				if state, err := parseCheckpoint(append(head, tail...), 0); err == nil {
					t.Fatalf("the descriptor of recycled ckpt-0 read a %d-byte state", len(state))
				}
				if state, err := ReadCheckpoint(elsewhere, 0); err == nil {
					t.Fatalf("a name of recycled ckpt-0 read a %d-byte state", len(state))
				}
				if gen, _, _, err := NewestCheckpoint(filepath.Dir(elsewhere)); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("NewestCheckpoint over recycled ckpt-0: generation %d, %v", gen, err)
				}
			})
		}
	}
}

// TestCheckpointSecondsTimesTheWholeWrite: xview_wal_checkpoint_seconds
// observes a checkpoint once it is sealed and pruned, not once its file has
// landed: a checkpoint whose file lands and whose seal fails counts as
// written and is not timed.
func TestCheckpointSecondsTimesTheWholeWrite(t *testing.T) {
	m := walmetrics()
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Policy: SyncAlways})
	defer l.Close()
	timed, written := m.ckptDur.Snapshot().Count, m.ckpts.Value()
	checkpointAt(t, l, 0, 0, stateOf(0, 100))
	if d, w := m.ckptDur.Snapshot().Count-timed, m.ckpts.Value()-written; d != 1 || w != 1 {
		t.Fatalf("one checkpoint: %d observations, %d written", d, w)
	}
	if err := os.Mkdir(filepath.Join(dir, segName(1)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]Record{rec(1)}); err != nil {
		t.Fatal(err)
	}
	if err := l.WriteCheckpoint(1, ckptBuf(stateOf(1, 100))); err == nil {
		t.Fatal("a seal over a directory succeeded")
	}
	if d, w := m.ckptDur.Snapshot().Count-timed, m.ckpts.Value()-written; d != 1 || w != 2 {
		t.Fatalf("a checkpoint whose seal failed: %d observations in all, %d written", d, w)
	}
}
