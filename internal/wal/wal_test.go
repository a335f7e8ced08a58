package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rxview/internal/dag"
	"rxview/internal/digest"
	"rxview/internal/relational"
)

// rec builds a distinguishable record for generation g.
func rec(g uint64) Record {
	return Record{
		Gen: g,
		Delta: []dag.DeltaOp{
			{Kind: dag.DeltaNodeAdd, Node: dag.NodeID(g), Type: fmt.Sprintf("t%d", g),
				Attr: relational.Tuple{relational.Str(fmt.Sprintf("a%d", g))}},
			{Kind: dag.DeltaEdgeAdd, Edge: dag.Edge{Parent: dag.NodeID(g), Child: dag.NodeID(g + 1)}},
		},
		DR: []relational.Mutation{
			{Table: "r1", Insert: true, Tuple: relational.Tuple{relational.Int(int64(g)), relational.Null()}},
		},
		Digest: digest.Sum{A: g, B: ^g},
	}
}

// AppendFramedRecord appends r to dst as one frame, the way Log.Append lays a
// record down. Tests build wire and segment bytes with it; outside tests
// Append is the only encoder.
func AppendFramedRecord(dst []byte, r Record) []byte {
	return appendFrame(dst, appendRecord(nil, r))
}

// ckptBuf is a checkpoint buffer as WriteCheckpoint takes it: the headroom,
// then the state.
func ckptBuf(state string) []byte {
	return append(make([]byte, CheckpointHeadroom), state...)
}

func mustOpen(t *testing.T, dir string, opts Options) (*Log, *BootState) {
	t.Helper()
	l, boot, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return l, boot
}

func TestRecordRoundTrip(t *testing.T) {
	in := rec(7)
	payload := appendRecord(nil, in)
	out, err := decodeRecord(payload)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip:\n in  %+v\n out %+v", in, out)
	}
	// Truncation at every byte must error, never panic or succeed.
	for i := 0; i < len(payload); i++ {
		if _, err := decodeRecord(payload[:i]); err == nil {
			t.Fatalf("decode of %d/%d bytes succeeded", i, len(payload))
		}
	}
	// A payload that states another format is refused as such, by number.
	foreign := bytes.Clone(payload)
	foreign[0] = Format + 1
	_, err = decodeRecord(foreign)
	if !errors.Is(err, errFormat) || !strings.Contains(err.Error(), fmt.Sprintf("format %d, this build reads format %d", Format+1, Format)) {
		t.Fatalf("foreign format: %v", err)
	}
}

func TestFreshDirThenReopen(t *testing.T) {
	dir := t.TempDir()
	l, boot := mustOpen(t, dir, Options{Policy: SyncOff})
	if boot != nil {
		t.Fatalf("fresh dir returned boot state %+v", boot)
	}
	if err := l.Append([]Record{rec(1)}); err == nil {
		t.Fatal("append before first checkpoint did not fail")
	}
	if err := l.WriteCheckpoint(0, ckptBuf("genesis")); err != nil {
		t.Fatalf("genesis checkpoint: %v", err)
	}
	for g := uint64(1); g <= 5; g++ {
		if err := l.Append([]Record{rec(g)}); err != nil {
			t.Fatalf("append %d: %v", g, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	_, boot = mustOpen(t, dir, Options{Policy: SyncOff})
	if boot == nil {
		t.Fatal("no boot state after reopen")
	}
	if boot.Gen != 0 || string(boot.State) != "genesis" {
		t.Fatalf("boot gen=%d state=%q", boot.Gen, boot.State)
	}
	if len(boot.Records) != 5 {
		t.Fatalf("recovered %d records, want 5", len(boot.Records))
	}
	for i, r := range boot.Records {
		if !reflect.DeepEqual(r, rec(uint64(i+1))) {
			t.Fatalf("record %d: %+v", i, r)
		}
	}
	if len(boot.Warnings) != 0 {
		t.Fatalf("unexpected warnings: %v", boot.Warnings)
	}
}

func TestCheckpointRotatesAndSkipsOldRecords(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Policy: SyncOff})
	if err := l.WriteCheckpoint(0, ckptBuf("s0")); err != nil {
		t.Fatal(err)
	}
	for g := uint64(1); g <= 3; g++ {
		if err := l.Append([]Record{rec(g)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.WriteCheckpoint(3, ckptBuf("s3")); err != nil {
		t.Fatal(err)
	}
	for g := uint64(4); g <= 6; g++ {
		if err := l.Append([]Record{rec(g)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, boot := mustOpen(t, dir, Options{Policy: SyncOff})
	if boot.Gen != 3 || string(boot.State) != "s3" {
		t.Fatalf("boot gen=%d state=%q", boot.Gen, boot.State)
	}
	gens := recordGens(boot.Records)
	if !reflect.DeepEqual(gens, []uint64{4, 5, 6}) {
		t.Fatalf("recovered generations %v", gens)
	}
}

func recordGens(recs []Record) []uint64 {
	out := make([]uint64, len(recs))
	for i, r := range recs {
		out[i] = r.Gen
	}
	return out
}

func TestTornTailTruncatedAtEveryByte(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Policy: SyncOff})
	if err := l.WriteCheckpoint(0, ckptBuf("s0")); err != nil {
		t.Fatal(err)
	}
	for g := uint64(1); g <= 3; g++ {
		if err := l.Append([]Record{rec(g)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segName(0))
	whole, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Find where the full-record prefixes end: offsets after the header and
	// each complete frame.
	valid := map[int]int{} // byte length -> records fully contained
	hdrLen := func() int {
		b := whole[len(segMagic):]
		_, rest, _ := readFrame(b)
		return len(whole) - len(rest)
	}()
	offs := []int{hdrLen}
	{
		off := hdrLen
		for n := 1; ; n++ {
			_, rest, res := readFrame(whole[off:])
			if res != frameOK {
				break
			}
			off = len(whole) - len(rest)
			offs = append(offs, off)
			valid[off] = n
		}
	}
	for cut := 0; cut <= len(whole); cut++ {
		sub := t.TempDir()
		if err := os.WriteFile(filepath.Join(sub, segName(0)), whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		// Checkpoint must ride along.
		src, _ := os.ReadFile(filepath.Join(dir, ckptName(0)))
		if err := os.WriteFile(filepath.Join(sub, ckptName(0)), src, 0o644); err != nil {
			t.Fatal(err)
		}
		_, boot, err := Open(sub, Options{Policy: SyncOff})
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		wantRecs := 0
		for _, off := range offs {
			if off <= cut {
				wantRecs = valid[off]
			}
		}
		if len(boot.Records) != wantRecs {
			t.Fatalf("cut at %d: recovered %d records, want %d", cut, len(boot.Records), wantRecs)
		}
		// An empty file (cut 0) is a crash before the header write, not a
		// torn record — no warning expected there or at clean boundaries.
		if cut != 0 && cut < len(whole) && len(boot.Warnings) == 0 && !containsOffset(offs, cut) {
			t.Fatalf("cut at %d: no torn-tail warning", cut)
		}
		// The truncated file must now be a clean prefix: reopening again
		// must succeed without new warnings.
		if _, boot2, err := Open(sub, Options{Policy: SyncOff}); err != nil {
			t.Fatalf("cut at %d: second open: %v", cut, err)
		} else if len(boot2.Records) != wantRecs {
			t.Fatalf("cut at %d: second open recovered %d records", cut, len(boot2.Records))
		}
	}
}

func containsOffset(offs []int, x int) bool {
	for _, o := range offs {
		if o == x {
			return true
		}
	}
	return false
}

func TestMidSegmentCorruptionRefused(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Policy: SyncOff})
	if err := l.WriteCheckpoint(0, ckptBuf("s0")); err != nil {
		t.Fatal(err)
	}
	for g := uint64(1); g <= 3; g++ {
		if err := l.Append([]Record{rec(g)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segName(0))
	b, _ := os.ReadFile(seg)
	// Flip a byte inside the first record's payload (well before the tail).
	hdrEnd := func() int {
		_, rest, _ := readFrame(b[len(segMagic):])
		return len(b) - len(rest)
	}()
	b[hdrEnd+8] ^= 0xff
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := Open(dir, Options{Policy: SyncOff})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mid-segment corruption: err=%v, want ErrCorrupt", err)
	}
}

func TestCorruptNewestCheckpointFallsBack(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Policy: SyncOff})
	if err := l.WriteCheckpoint(0, ckptBuf("s0")); err != nil {
		t.Fatal(err)
	}
	for g := uint64(1); g <= 2; g++ {
		if err := l.Append([]Record{rec(g)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.WriteCheckpoint(2, ckptBuf("s2")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]Record{rec(3)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Damage the newest checkpoint's state payload.
	ck := filepath.Join(dir, ckptName(2))
	b, _ := os.ReadFile(ck)
	b[len(b)-1] ^= 0xff
	if err := os.WriteFile(ck, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, boot := mustOpen(t, dir, Options{Policy: SyncOff})
	if boot.Gen != 0 || string(boot.State) != "s0" {
		t.Fatalf("fallback chose gen=%d state=%q", boot.Gen, boot.State)
	}
	// The suffix must now cover everything after gen 0, crossing segments.
	if g := recordGens(boot.Records); !reflect.DeepEqual(g, []uint64{1, 2, 3}) {
		t.Fatalf("fallback recovered generations %v", g)
	}
	if len(boot.Warnings) == 0 {
		t.Fatal("no warning about the skipped checkpoint")
	}
	if !reflect.DeepEqual(boot.Unreadable, []uint64{2}) {
		t.Fatalf("fallback reports unreadable checkpoints %v, want [2]", boot.Unreadable)
	}
	// Damage the older one too: now nothing is recoverable.
	ck0 := filepath.Join(dir, ckptName(0))
	b0, _ := os.ReadFile(ck0)
	b0[len(b0)-1] ^= 0xff
	if err := os.WriteFile(ck0, b0, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{Policy: SyncOff}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("all checkpoints corrupt: err=%v, want ErrCorrupt", err)
	}
}

func TestGenerationGapRefused(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Policy: SyncOff})
	if err := l.WriteCheckpoint(0, ckptBuf("s0")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]Record{rec(1)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]Record{rec(3)}); err != nil { // gap: 2 missing
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, _, err := Open(dir, Options{Policy: SyncOff})
	if !errors.Is(err, ErrMismatch) {
		t.Fatalf("generation gap: err=%v, want ErrMismatch", err)
	}
}

func TestPruneKeepsTwoCheckpoints(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Policy: SyncOff})
	if err := l.WriteCheckpoint(0, ckptBuf("s0")); err != nil {
		t.Fatal(err)
	}
	gen := uint64(0)
	for ck := 0; ck < 4; ck++ {
		for i := 0; i < 2; i++ {
			gen++
			if err := l.Append([]Record{rec(gen)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.WriteCheckpoint(gen, ckptBuf(fmt.Sprintf("s%d", gen))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	ckpts, segs := listDir(dir)
	if !reflect.DeepEqual(ckpts, []uint64{6, 8}) {
		t.Fatalf("kept checkpoints %v, want [6 8]", ckpts)
	}
	if !reflect.DeepEqual(segs, []uint64{6, 8}) {
		t.Fatalf("kept segments %v, want [6 8]", segs)
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, p := range []SyncPolicy{SyncAlways, SyncBatch, SyncOff} {
		dir := t.TempDir()
		l, _ := mustOpen(t, dir, Options{Policy: p, BatchEvery: 2})
		if err := l.WriteCheckpoint(0, ckptBuf("s0")); err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		for g := uint64(1); g <= 5; g++ {
			if err := l.Append([]Record{rec(g)}); err != nil {
				t.Fatalf("%v append %d: %v", p, g, err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatalf("%v close: %v", p, err)
		}
		_, boot := mustOpen(t, dir, Options{Policy: SyncOff})
		if len(boot.Records) != 5 {
			t.Fatalf("%v: recovered %d records", p, len(boot.Records))
		}
	}
}

// TestSealSyncsOnlyUnsyncedBytes counts xview_wal_fsyncs_total across a
// Seal and across a checkpoint, whose Seal follows its own sync of the log:
// under SyncAlways every Append already ended with an fsync, so neither adds
// one; under SyncBatch the appends since the last batch fsync are made
// stable, with exactly one.
func TestSealSyncsOnlyUnsyncedBytes(t *testing.T) {
	for _, tc := range []struct {
		policy SyncPolicy
		want   uint64
	}{{SyncAlways, 0}, {SyncBatch, 1}} {
		l, _ := mustOpen(t, t.TempDir(), Options{Policy: tc.policy, BatchEvery: 8})
		if err := l.WriteCheckpoint(0, ckptBuf("s0")); err != nil {
			t.Fatal(err)
		}
		for _, step := range []struct {
			name string
			gen  uint64
			do   func(gen uint64) error
		}{
			{"sealing", 3, l.Seal},
			{"checkpointing", 6, func(gen uint64) error { return l.WriteCheckpoint(gen, ckptBuf("s6")) }},
		} {
			for g := step.gen - 2; g <= step.gen; g++ {
				if err := l.Append([]Record{rec(g)}); err != nil {
					t.Fatal(err)
				}
			}
			before := walmetrics().fsyncs.Value()
			if err := step.do(step.gen); err != nil {
				t.Fatal(err)
			}
			if got := walmetrics().fsyncs.Value() - before; got != tc.want {
				t.Errorf("%v: %s at %d issued %d segment fsyncs, want %d", tc.policy, step.name, step.gen, got, tc.want)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
	}{{"always", SyncAlways}, {"batch", SyncBatch}, {"off", SyncOff}} {
		got, err := ParsePolicy(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Fatalf("String() = %q", got.String())
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}
	if _, _, err := Open(t.TempDir(), Options{Policy: SyncOff + 1}); err == nil {
		t.Fatal("Open accepted a policy that is none of the three")
	}
}

func TestInspect(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Policy: SyncOff})
	if err := l.WriteCheckpoint(0, ckptBuf("state-zero")); err != nil {
		t.Fatal(err)
	}
	for g := uint64(1); g <= 3; g++ {
		if err := l.Append([]Record{rec(g)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Checkpoints) != 1 || info.Checkpoints[0].Gen != 0 ||
		info.Checkpoints[0].Bytes != len("state-zero") || info.Checkpoints[0].Err != "" {
		t.Fatalf("checkpoints: %+v", info.Checkpoints)
	}
	if len(info.Segments) != 1 || info.Segments[0].Start != 0 {
		t.Fatalf("segments: %+v", info.Segments)
	}
	recs := info.Segments[0].Records
	if len(recs) != 3 {
		t.Fatalf("records: %+v", recs)
	}
	for i, r := range recs {
		if r.Gen != uint64(i+1) || r.DeltaOps != 2 || r.Mutations != 1 || r.Bytes <= 0 {
			t.Fatalf("record %d: %+v", i, r)
		}
	}
	// Torn tail shows up as a note, not an error.
	seg := filepath.Join(dir, segName(0))
	b, _ := os.ReadFile(seg)
	if err := os.WriteFile(seg, b[:len(b)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	info, err = Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.Segments[0].Note == "" || len(info.Segments[0].Records) != 2 {
		t.Fatalf("torn segment: %+v", info.Segments[0])
	}
	// One parser: the listing counts the records a catch-up scan of the same
	// damaged directory returns, and names the stop the scan ended at.
	scanned, err := ScanFrom(dir, 0, 3)
	if err != nil || len(scanned) != len(info.Segments[0].Records) {
		t.Fatalf("ScanFrom returned %d records (err %v), Inspect lists %d", len(scanned), err, len(info.Segments[0].Records))
	}
	for i, r := range scanned {
		if got := info.Segments[0].Records[i]; got.Gen != r.Gen || got.Bytes != len(r.Frame) {
			t.Fatalf("record %d: listed %+v, scanned generation %d in %d bytes", i, got, r.Gen, len(r.Frame))
		}
	}
	if _, err := Inspect(filepath.Join(dir, "nope")); err == nil {
		t.Fatal("missing dir accepted")
	}
}

func TestSegmentsWithoutCheckpointRefused(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(0)), []byte(segMagic), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err=%v, want ErrCorrupt", err)
	}
}

// TestSegmentBeforeCheckpoint: a Seal without a checkpoint — what a
// recovered view does at boot — leaves wal-<gen> and no ckpt-<gen>, and
// records are acknowledged into that segment. Recovery returns every record
// from the newest checkpoint that exists: the older one, across both
// segments, until the next WriteCheckpoint lands; then that one.
func TestSegmentBeforeCheckpoint(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Policy: SyncAlways})
	if err := l.WriteCheckpoint(0, ckptBuf("s0")); err != nil {
		t.Fatal(err)
	}
	appendGens := func(from, to uint64) {
		t.Helper()
		for g := from; g <= to; g++ {
			if err := l.Append([]Record{rec(g)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendGens(1, 3)
	if err := l.Seal(3); err != nil {
		t.Fatal(err)
	}
	appendGens(4, 5)
	recovered := func(when string, wantGen uint64, wantState string, wantRecs []uint64) {
		t.Helper()
		image := t.TempDir()
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(image, e.Name()), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		_, boot := mustOpen(t, image, Options{Policy: SyncAlways})
		if boot.Gen != wantGen || string(boot.State) != wantState {
			t.Fatalf("%s: recovered from checkpoint %d (%q), want %d (%q)", when, boot.Gen, boot.State, wantGen, wantState)
		}
		if g := recordGens(boot.Records); !reflect.DeepEqual(g, wantRecs) {
			t.Fatalf("%s: recovered generations %v, want %v", when, g, wantRecs)
		}
		if len(boot.Warnings) != 0 {
			t.Fatalf("%s: a segment without its checkpoint is no finding: %v", when, boot.Warnings)
		}
	}
	if ckpts, segs := listDir(dir); !reflect.DeepEqual(ckpts, []uint64{0}) || !reflect.DeepEqual(segs, []uint64{0, 3}) {
		t.Fatalf("after the Seal: checkpoints %v, segments %v", ckpts, segs)
	}
	recovered("before the checkpoint", 0, "s0", []uint64{1, 2, 3, 4, 5})

	if err := l.WriteCheckpoint(5, ckptBuf("s5")); err != nil {
		t.Fatal(err)
	}
	appendGens(6, 6)
	if ckpts, segs := listDir(dir); !reflect.DeepEqual(ckpts, []uint64{0, 5}) || !reflect.DeepEqual(segs, []uint64{0, 3, 5}) {
		t.Fatalf("after the checkpoint: checkpoints %v, segments %v", ckpts, segs)
	}
	recovered("after the checkpoint", 5, "s5", []uint64{6})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFailedSealKillsTheLog: a Seal that cannot start the next segment — a
// directory squats on its name — has already closed the old one, so the log
// is dead: Failed names the cause and the next Append is a disk failure, not
// an append before the first checkpoint. WriteCheckpoint fails the same way
// when its Seal does, after the file has landed. Reopen and a checkpoint
// revive it once the blocker is gone.
func TestFailedSealKillsTheLog(t *testing.T) {
	for _, via := range []string{"Seal", "WriteCheckpoint"} {
		t.Run(via, func(t *testing.T) {
			dir := t.TempDir()
			l, _ := mustOpen(t, dir, Options{Policy: SyncAlways})
			if err := l.WriteCheckpoint(0, ckptBuf("s0")); err != nil {
				t.Fatal(err)
			}
			if err := l.Append([]Record{rec(1), rec(2)}); err != nil {
				t.Fatal(err)
			}
			blocker := filepath.Join(dir, segName(2))
			if err := os.Mkdir(blocker, 0o755); err != nil {
				t.Fatal(err)
			}
			var err error
			if via == "Seal" {
				err = l.Seal(2)
			} else {
				err = l.WriteCheckpoint(2, ckptBuf("s2"))
			}
			if err == nil {
				t.Fatalf("%s at 2 succeeded over a directory named %s", via, segName(2))
			}
			if l.Failed() == nil {
				t.Fatalf("%s failed (%v) and left the log alive", via, err)
			}
			var de *DiskFailureError
			if err := l.Append([]Record{rec(3)}); !errors.As(err, &de) {
				t.Fatalf("append on the dead log: %v, want a *DiskFailureError", err)
			}

			if err := os.Remove(blocker); err != nil {
				t.Fatal(err)
			}
			if _, err := l.Reopen(); err != nil {
				t.Fatal(err)
			}
			if err := l.WriteCheckpoint(2, ckptBuf("s2")); err != nil {
				t.Fatal(err)
			}
			if err := l.Append([]Record{rec(3)}); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			_, boot := mustOpen(t, dir, Options{Policy: SyncAlways})
			if boot.Gen != 2 || string(boot.State) != "s2" || !reflect.DeepEqual(recordGens(boot.Records), []uint64{3}) {
				t.Fatalf("recovered from %d (%q) with %v", boot.Gen, boot.State, recordGens(boot.Records))
			}
		})
	}
}

// TestSealStartsASegmentWithoutACheckpoint: what a recovered view does
// instead of re-serializing the state it has just read.
func TestSealStartsASegmentWithoutACheckpoint(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Policy: SyncOff})
	if err := l.WriteCheckpoint(0, ckptBuf("s0")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]Record{rec(1), rec(2)}); err != nil {
		t.Fatal(err)
	}
	// No Close: a crash. The reopened log seals at the generation recovery
	// reached and appends on.
	l2, boot := mustOpen(t, dir, Options{Policy: SyncOff})
	if boot.Gen != 0 || len(boot.Records) != 2 {
		t.Fatalf("boot %+v", boot)
	}
	if err := l2.Append([]Record{rec(3)}); err == nil {
		t.Fatal("append before Seal did not fail")
	}
	if err := l2.Seal(2); err != nil {
		t.Fatal(err)
	}
	if err := l2.Append([]Record{rec(3)}); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	if ckpts, segs := listDir(dir); !reflect.DeepEqual(ckpts, []uint64{0}) || !reflect.DeepEqual(segs, []uint64{0, 2}) {
		t.Fatalf("checkpoints %v, segments %v", ckpts, segs)
	}
	_, boot = mustOpen(t, dir, Options{Policy: SyncOff})
	if g := recordGens(boot.Records); boot.Gen != 0 || !reflect.DeepEqual(g, []uint64{1, 2, 3}) {
		t.Fatalf("recovered from %d: %v", boot.Gen, g)
	}
}

// TestUndoneTruncationUnderLaterSegmentRefused is why recovery fsyncs the
// tail it has just repaired: once a newer segment follows, the old one is
// judged by the strict rule, so a truncation the crash took back — here put
// back by hand, no power-cut simulator being at hand — is a bad frame in a
// sealed segment and refuses the log. (The fsync itself is not observable
// from a test; this pins what depends on it.)
func TestUndoneTruncationUnderLaterSegmentRefused(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Policy: SyncOff})
	if err := l.WriteCheckpoint(0, ckptBuf("s0")); err != nil {
		t.Fatal(err)
	}
	for g := uint64(1); g <= 2; g++ {
		if err := l.Append([]Record{rec(g)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segName(0))
	whole, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	torn := whole[:len(whole)-3]
	if err := os.WriteFile(seg, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, boot := mustOpen(t, dir, Options{Policy: SyncOff})
	if len(boot.Records) != 1 || len(boot.Warnings) != 1 {
		t.Fatalf("torn tail: %d records, warnings %v", len(boot.Records), boot.Warnings)
	}
	if b, _ := os.ReadFile(seg); len(b) >= len(torn) {
		t.Fatalf("torn tail not truncated: %d bytes", len(b))
	}
	if err := l2.Seal(1); err != nil {
		t.Fatal(err)
	}
	if err := l2.Append([]Record{rec(2)}); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, boot = mustOpen(t, dir, Options{Policy: SyncOff}); !reflect.DeepEqual(recordGens(boot.Records), []uint64{1, 2}) {
		t.Fatalf("with the truncation in place: %v", recordGens(boot.Records))
	}
	// The crash undoes the truncation.
	if err := os.WriteFile(seg, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{Policy: SyncOff}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("undone truncation under a later segment: err=%v, want ErrCorrupt", err)
	}
}

// TestOpenRemovesStaleCheckpointTemp: a crash mid-checkpoint leaves the temp
// file behind; the next Open deletes it and nothing else.
func TestOpenRemovesStaleCheckpointTemp(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Policy: SyncOff})
	if err := l.WriteCheckpoint(0, ckptBuf("s0")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]Record{rec(1)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, "ckpt-123456789.tmp")
	if err := os.WriteFile(stale, make([]byte, 4096), 0o644); err != nil {
		t.Fatal(err)
	}
	before, _ := os.ReadDir(dir)
	_, boot := mustOpen(t, dir, Options{Policy: SyncOff})
	if boot.Gen != 0 || len(boot.Records) != 1 || len(boot.Warnings) != 0 {
		t.Fatalf("boot %+v", boot)
	}
	after, _ := os.ReadDir(dir)
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) || len(after) != len(before)-1 {
		t.Fatalf("stale temp file: stat err %v; %d entries before, %d after", err, len(before), len(after))
	}
}

// TestCheckpointFileLocatesState: CheckpointFile names the file
// WriteCheckpoint wrote and the offset its state starts at, for states whose
// length takes one, two and three varint bytes.
func TestCheckpointFileLocatesState(t *testing.T) {
	l, _ := mustOpen(t, t.TempDir(), Options{Policy: SyncOff})
	defer l.Close()
	for gen, n := range []int{1, 127, 128, 16383, 16384} {
		state := bytes.Repeat([]byte{byte(n)}, n)
		state[0], state[n-1] = 0xa1, 0xb2
		if err := l.WriteCheckpoint(uint64(gen), append(make([]byte, CheckpointHeadroom), state...)); err != nil {
			t.Fatal(err)
		}
		path, off := l.CheckpointFile(uint64(gen), n)
		file, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if int(off)+n != len(file) || !bytes.Equal(file[off:], state) {
			t.Fatalf("state of %d bytes: CheckpointFile says offset %d in a file of %d bytes", n, off, len(file))
		}
	}
}
