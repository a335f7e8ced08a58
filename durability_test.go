package rxview_test

// Tests of the durability layer: fresh-directory genesis, recovery with and
// without a clean Close, the crash-point property (a log cut at every byte
// recovers exactly the last durable generation), checkpoint rotation, the
// error taxonomy, and the zero-overhead contract for non-durable views.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rxview"
)

func mustDurableView(t *testing.T, dir string, opts ...rxview.Option) *rxview.View {
	t.Helper()
	atg, db, err := rxview.NewRegistrar()
	if err != nil {
		t.Fatal(err)
	}
	view, err := rxview.Open(atg, db, append([]rxview.Option{rxview.WithDurability(dir)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return view
}

// fingerprint captures the externally observable state: the serialized
// view, the base-table row counts, and the generation.
func fingerprint(t *testing.T, v *rxview.View) string {
	t.Helper()
	xml, err := v.XML(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "gen=%d\n", v.Generation())
	for _, ti := range v.DB().Tables() {
		fmt.Fprintf(&sb, "%s=%d\n", ti.Name, ti.Rows)
	}
	sb.WriteString(xml)
	return sb.String()
}

func TestDurableCleanShutdownAndReopen(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	v := mustDurableView(t, dir)
	if v.Generation() != 0 {
		t.Fatalf("genesis generation %d", v.Generation())
	}
	if _, err := v.Apply(ctx, rxview.Insert(`.`, "course", rxview.Str("CS800"), rxview.Str("Durable"))); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Apply(ctx, rxview.Insert(`//course[cno="CS800"]/takenBy`, "student", rxview.Str("S80"), rxview.Str("Dee"))); err != nil {
		t.Fatal(err)
	}
	want := fingerprint(t, v)
	if err := v.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Close is idempotent and leaves the view usable in memory.
	if err := v.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}

	v2 := mustDurableView(t, dir)
	defer v2.Close()
	if got := fingerprint(t, v2); got != want {
		t.Fatalf("reopened state differs:\n%s\nvs\n%s", got, want)
	}
	if err := v2.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// A clean shutdown sealed everything in the checkpoint: recovery must
	// not have replayed any records.
	info, err := rxview.InspectWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	newest := info.Checkpoints[len(info.Checkpoints)-1]
	if newest.Gen != 2 {
		t.Fatalf("newest checkpoint at generation %d, want 2", newest.Gen)
	}
}

func TestDurableRecoveryWithoutClose(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	v := mustDurableView(t, dir)
	if _, err := v.Apply(ctx, rxview.Insert(`.`, "course", rxview.Str("CS810"), rxview.Str("Unclosed"))); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Batch(ctx,
		rxview.Insert(`//course[cno="CS810"]/takenBy`, "student", rxview.Str("S81"), rxview.Str("Ann")),
		rxview.Insert(`//course[cno="CS810"]/takenBy`, "student", rxview.Str("S82"), rxview.Str("Bob")),
	); err != nil {
		t.Fatal(err)
	}
	want := fingerprint(t, v)
	// No Close: the next Open replays the log suffix onto the genesis
	// checkpoint.
	v2 := mustDurableView(t, dir)
	defer v2.Close()
	if v2.Generation() != 3 {
		t.Fatalf("recovered generation %d, want 3", v2.Generation())
	}
	if got := fingerprint(t, v2); got != want {
		t.Fatalf("recovered state differs:\n%s\nvs\n%s", got, want)
	}
}

// A rejected insert that published fresh nodes before its translation
// failed must leave nothing the log cannot reproduce: the next update's
// nodes get the ids a replay of the log gives them, so the reopen recovers.
func TestDurableRecoveryAfterRejectedInsert(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	v := mustDurableView(t, dir)
	// EE100 exists outside the view's CS selection: not updatable.
	if _, err := v.Apply(ctx, rxview.Insert(`.`, "course", rxview.Str("EE100"), rxview.Str("Circuits"))); !errors.Is(err, rxview.ErrNotUpdatable) {
		t.Fatalf("EE100 insert = %v, want ErrNotUpdatable", err)
	}
	if _, err := v.Apply(ctx, rxview.Insert(`.`, "course", rxview.Str("CS811"), rxview.Str("After"))); err != nil {
		t.Fatal(err)
	}
	want := fingerprint(t, v)
	v2 := mustDurableView(t, dir) // no Close: replay the log suffix
	defer v2.Close()
	if got := fingerprint(t, v2); got != want {
		t.Fatalf("recovered state differs:\n%s\nvs\n%s", got, want)
	}
}

func TestDurableAtomicTxRecovery(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	v := mustDurableView(t, dir)
	tx, err := v.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []rxview.Update{
		rxview.Insert(`.`, "course", rxview.Str("CS111"), rxview.Str("Intro")),
		rxview.Insert(`//course[cno="CS111"]/prereq`, "course", rxview.Str("CS112"), rxview.Str("Intro II")),
		rxview.Delete(`//course[cno="CS320"]//student[ssn="S02"]`),
	} {
		if _, err := tx.Stage(ctx, u); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if v.Generation() != 1 {
		t.Fatalf("atomic group advanced generation to %d, want 1", v.Generation())
	}
	want := fingerprint(t, v)

	v2 := mustDurableView(t, dir)
	defer v2.Close()
	if got := fingerprint(t, v2); got != want {
		t.Fatalf("recovered state differs:\n%s\nvs\n%s", got, want)
	}
	// The whole group is one record.
	info, err := rxview.InspectWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	var recs int
	for _, s := range info.Segments {
		recs += len(s.Records)
	}
	if recs != 1 {
		t.Fatalf("atomic group produced %d records, want 1", recs)
	}
}

// crashStep is one committed unit (or, for batch, one unit per member) of
// the deterministic crash workload.
type crashStep struct {
	kind string // apply, tx, batch
	ups  []rxview.Update
}

func crashSteps() []crashStep {
	return []crashStep{
		{"apply", []rxview.Update{rxview.Insert(`.`, "course", rxview.Str("CS800"), rxview.Str("Alpha"))}},
		{"apply", []rxview.Update{rxview.Insert(`//course[cno="CS800"]/prereq`, "course", rxview.Str("CS801"), rxview.Str("Beta"))}},
		{"batch", []rxview.Update{
			rxview.Insert(`//course[cno="CS650"]/takenBy`, "student", rxview.Str("S71"), rxview.Str("One")),
			rxview.Insert(`//course[cno="CS650"]/takenBy`, "student", rxview.Str("S72"), rxview.Str("Two")),
			rxview.Insert(`//course[cno="CS800"]/takenBy`, "student", rxview.Str("S73"), rxview.Str("Three")),
		}},
		{"tx", []rxview.Update{
			rxview.Insert(`.`, "course", rxview.Str("CS111"), rxview.Str("Intro")),
			rxview.Insert(`//course[cno="CS111"]/prereq`, "course", rxview.Str("CS112"), rxview.Str("Intro II")),
			rxview.Delete(`//course[cno="CS320"]//student[ssn="S02"]`),
		}},
		{"apply", []rxview.Update{rxview.Delete(`//course[cno="CS800"]//course[cno="CS801"]`)}},
		{"batch", []rxview.Update{
			rxview.Insert(`.`, "course", rxview.Str("CS901"), rxview.Str("Gamma")),
			rxview.Insert(`//course[cno="CS901"]/prereq`, "course", rxview.Str("CS902"), rxview.Str("Delta")),
			rxview.Insert(`//course[cno="CS902"]/takenBy`, "student", rxview.Str("S99"), rxview.Str("Last")),
		}},
		{"apply", []rxview.Update{rxview.Delete(`//course[cno="CS901"]`)}},
	}
}

// runCrashStep executes one step on a view, committing through the same
// code path the durable run uses.
func runCrashStep(t *testing.T, ctx context.Context, v *rxview.View, s crashStep) {
	t.Helper()
	switch s.kind {
	case "apply":
		if _, err := v.Apply(ctx, s.ups[0]); err != nil {
			t.Fatalf("apply %v: %v", s.ups[0], err)
		}
	case "batch":
		if _, err := v.Batch(ctx, s.ups...); err != nil {
			t.Fatalf("batch: %v", err)
		}
	case "tx":
		tx, err := v.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range s.ups {
			if _, err := tx.Stage(ctx, u); err != nil {
				t.Fatalf("stage %v: %v", u, err)
			}
		}
		if err := tx.Commit(ctx); err != nil {
			t.Fatalf("commit: %v", err)
		}
	}
}

// oracleFingerprints replays the workload on a plain in-memory view,
// capturing the fingerprint after every generation: batch members advance
// one generation each (batch state equals the same sequence of Applies),
// an atomic group advances exactly one.
func oracleFingerprints(t *testing.T) []string {
	t.Helper()
	ctx := context.Background()
	atg, db, err := rxview.NewRegistrar()
	if err != nil {
		t.Fatal(err)
	}
	v, err := rxview.Open(atg, db)
	if err != nil {
		t.Fatal(err)
	}
	fps := []string{fingerprint(t, v)} // generation 0
	for _, s := range crashSteps() {
		switch s.kind {
		case "apply", "batch":
			for _, u := range s.ups {
				if _, err := v.Apply(ctx, u); err != nil {
					t.Fatalf("oracle apply %v: %v", u, err)
				}
				fps = append(fps, fingerprint(t, v))
			}
		case "tx":
			runCrashStep(t, ctx, v, s)
			fps = append(fps, fingerprint(t, v))
		}
	}
	return fps
}

// TestCrashPointRecovery is the crash-point property test: run the workload
// durably, then cut the log at every byte, recover, and require the result
// to equal the in-memory oracle at the last durable generation.
func TestCrashPointRecovery(t *testing.T) {
	// Huge checkpoint interval: the whole workload lands in one segment
	// after the genesis checkpoint.
	crashPointRecovery(t, 1<<30, 1)
}

// TestCrashPointRecoveryAcrossCheckpoint cuts the newest segment of a
// directory that holds wal-G without ckpt-G — the layout a recovered view's
// boot Seal leaves — plus a temp file an older build's crashed checkpoint
// write left behind and a ckpt.next that a crash caught half overwritten by
// the checkpoint that never landed, with acknowledged records in that
// segment. Recovery starts from the older checkpoint and replays across both
// segments.
func TestCrashPointRecoveryAcrossCheckpoint(t *testing.T) {
	// Every 6: the one automatic checkpoint falls on generation 6 of 11.
	crashPointRecovery(t, 6, 2)
}

// crashPointRecovery runs the crash workload checkpointing at the given
// interval, which must leave wantSegs segments and as many checkpoints, and
// recovers from every cut of the last segment. With more than one segment
// the newest checkpoint is left out of the image, and a stale temp file and
// a half-overwritten ckpt.next are put in.
func crashPointRecovery(t *testing.T, every, wantSegs int) {
	ctx := context.Background()
	dir := t.TempDir()
	v := mustDurableView(t, dir, rxview.WithFsync(rxview.FsyncOff), rxview.WithCheckpointEvery(every))
	for _, s := range crashSteps() {
		runCrashStep(t, ctx, v, s)
	}
	finalGen := v.Generation()
	// No Close, no final checkpoint: the process "dies" here with the
	// whole history in the log.

	oracle := oracleFingerprints(t)
	if uint64(len(oracle)) != finalGen+1 {
		t.Fatalf("oracle has %d states for final generation %d", len(oracle), finalGen)
	}

	info, err := rxview.InspectWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Segments) != wantSegs || len(info.Checkpoints) != wantSegs {
		t.Fatalf("expected %d segment(s) and as many checkpoints, got %+v", wantSegs, info)
	}
	// What every image holds whole: the segments before the last, and the
	// checkpoints that had landed when the process died.
	whole := map[string][]byte{}
	landed := info.Checkpoints
	if wantSegs > 1 {
		landed = landed[:len(landed)-1]
		whole["ckpt-0000000000.tmp"] = []byte("a checkpoint the crash caught half written")
		// The file the prune retired, its first half overwritten by the
		// checkpoint that never landed.
		retired, err := os.ReadFile(landed[0].Path)
		if err != nil {
			t.Fatal(err)
		}
		newest, err := os.ReadFile(info.Checkpoints[len(info.Checkpoints)-1].Path)
		if err != nil {
			t.Fatal(err)
		}
		half := min(len(newest), len(retired)) / 2
		whole["ckpt.next"] = append(newest[:half:half], retired[half:]...)
	}
	for _, c := range landed {
		if whole[filepath.Base(c.Path)], err = os.ReadFile(c.Path); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range info.Segments[:len(info.Segments)-1] {
		if whole[filepath.Base(s.Path)], err = os.ReadFile(s.Path); err != nil {
			t.Fatal(err)
		}
	}
	seg := info.Segments[len(info.Segments)-1]
	firstGen := finalGen - uint64(len(seg.Records)) // the generation the last segment starts after
	if wantSegs == 1 && uint64(len(seg.Records)) != finalGen {
		t.Fatalf("log has %d records for %d generations", len(seg.Records), finalGen)
	}
	if len(seg.Records) < 3 {
		t.Fatalf("only %d records in the segment being cut", len(seg.Records))
	}
	last, err := os.ReadFile(seg.Path)
	if err != nil {
		t.Fatal(err)
	}
	// End offset of each record: the segment is header + records, so walk
	// the published sizes back from the file end.
	total := 0
	for _, r := range seg.Records {
		total += r.Bytes
	}
	recEnd := make([]int, len(seg.Records)) // recEnd[i] = bytes that fully contain records 0..i
	off := len(last) - total
	for i, r := range seg.Records {
		off += r.Bytes
		recEnd[i] = off
	}

	cuts := make([]int, 0, len(last)+1)
	if testing.Short() {
		// Record boundaries ±1 plus frame midpoints.
		seen := map[int]bool{}
		add := func(c int) {
			if c >= 0 && c <= len(last) && !seen[c] {
				seen[c] = true
				cuts = append(cuts, c)
			}
		}
		prev := 0
		for _, e := range recEnd {
			add(e - 1)
			add(e)
			add(e + 1)
			add((prev + e) / 2)
			prev = e
		}
		add(0)
		add(len(last))
	} else {
		for c := 0; c <= len(last); c++ {
			cuts = append(cuts, c)
		}
	}

	for _, cut := range cuts {
		sub := t.TempDir()
		if err := os.WriteFile(filepath.Join(sub, filepath.Base(seg.Path)), last[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		for name, b := range whole {
			if err := os.WriteFile(filepath.Join(sub, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		wantGen := firstGen
		for i, e := range recEnd {
			if e <= cut {
				wantGen = firstGen + uint64(i+1)
			}
		}
		rv := mustDurableView(t, sub)
		if rv.Generation() != wantGen {
			t.Fatalf("cut at %d: recovered generation %d, want %d", cut, rv.Generation(), wantGen)
		}
		if got := fingerprint(t, rv); got != oracle[wantGen] {
			t.Fatalf("cut at %d (generation %d): recovered state differs from oracle:\n%s\nvs\n%s",
				cut, wantGen, got, oracle[wantGen])
		}
		if err := rv.CheckConsistency(); err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if err := rv.Close(); err != nil {
			t.Fatalf("cut at %d: close: %v", cut, err)
		}
		if stale, _ := filepath.Glob(filepath.Join(sub, "*.tmp")); len(stale) != 0 {
			t.Fatalf("cut at %d: %v survived the reopen", cut, stale)
		}
	}
}

func TestCheckpointEveryRotatesAndPrunes(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	v := mustDurableView(t, dir, rxview.WithCheckpointEvery(2))
	for i := 0; i < 7; i++ {
		u := rxview.Insert(`//course[cno="CS650"]/takenBy`, "student",
			rxview.Str(fmt.Sprintf("S6%02d", i)), rxview.Str("X"))
		if _, err := v.Apply(ctx, u); err != nil {
			t.Fatal(err)
		}
		// The checkpoint is on disk when the commit that triggered it
		// returns.
		if gen := v.Generation(); gen%2 == 0 {
			if ckpts, _ := walShape(t, dir); ckpts[len(ckpts)-1] != gen {
				t.Fatalf("commit %d returned before its checkpoint landed: %v", gen, ckpts)
			}
		}
	}
	info, err := rxview.InspectWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	// 7 commits at every-2 → automatic checkpoints fired; pruning keeps 2.
	if len(info.Checkpoints) != 2 {
		t.Fatalf("kept %d checkpoints: %+v", len(info.Checkpoints), info.Checkpoints)
	}
	newest := info.Checkpoints[1]
	if newest.Gen < 4 {
		t.Fatalf("newest checkpoint at generation %d", newest.Gen)
	}
	want := fingerprint(t, v)
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	v2 := mustDurableView(t, dir)
	defer v2.Close()
	if got := fingerprint(t, v2); got != want {
		t.Fatalf("recovered state differs after rotation:\n%s\nvs\n%s", got, want)
	}
}

// copyWALDir copies a durability directory byte for byte — what a crash
// leaves behind of a view that is still open.
func copyWALDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func insertStudent(t *testing.T, v *rxview.View, ssn string) {
	t.Helper()
	u := rxview.Insert(`//course[cno="CS650"]/takenBy`, "student", rxview.Str(ssn), rxview.Str("X"))
	if _, err := v.Apply(context.Background(), u); err != nil {
		t.Fatal(err)
	}
}

// walShape lists a directory's checkpoint and segment generations.
func walShape(t *testing.T, dir string) (ckpts, segs []uint64) {
	t.Helper()
	info, err := rxview.InspectWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range info.Checkpoints {
		ckpts = append(ckpts, c.Gen)
	}
	for _, s := range info.Segments {
		segs = append(segs, s.Start)
	}
	return ckpts, segs
}

// TestCheckpointFileFaultWarnedAndRetried: an automatic checkpoint fails
// writing its file (the injected wal.checkpoint fault), before the log has
// rotated. The failure is a warning, the newest landed checkpoint does not
// move, the next commit retries, and a crash at any point along the way loses
// nothing.
func TestCheckpointFileFaultWarnedAndRetried(t *testing.T) {
	dir := t.TempDir()
	var warnings []string
	v := mustDurableView(t, dir, rxview.WithCheckpointEvery(2),
		rxview.WithRecoveryWarn(func(msg string) { warnings = append(warnings, msg) }))
	defer v.Close()
	if err := rxview.EnableChaos("wal.checkpoint:count=1", 1); err != nil {
		t.Fatal(err)
	}
	defer rxview.DisableChaos()

	insertStudent(t, v, "S501")
	insertStudent(t, v, "S502") // generation 2: the checkpoint that fails
	if len(warnings) != 1 || !strings.Contains(warnings[0], "checkpoint at generation 2 failed") {
		t.Fatalf("warnings after the failed checkpoint: %q", warnings)
	}
	if got := v.LandedCheckpoint(); got != 0 {
		t.Fatalf("newest landed checkpoint %d after a failed write, want 0", got)
	}
	if v.Degraded() {
		t.Fatal("a failed checkpoint file degraded the view; the log is intact")
	}
	if ckpts, segs := walShape(t, dir); fmt.Sprint(ckpts, segs) != "[0] [0]" {
		t.Fatalf("after the failed checkpoint: checkpoints %v, segments %v", ckpts, segs)
	}
	crashed := copyWALDir(t, dir)

	insertStudent(t, v, "S503") // generation 3: the retry
	if len(warnings) != 1 {
		t.Fatalf("the retry warned too: %q", warnings)
	}
	if got := v.LandedCheckpoint(); got != 3 {
		t.Fatalf("newest landed checkpoint %d after the retry, want 3", got)
	}
	if ckpts, segs := walShape(t, dir); fmt.Sprint(ckpts, segs) != "[0 3] [0 3]" {
		t.Fatalf("after the retry: checkpoints %v, segments %v", ckpts, segs)
	}
	rxview.DisableChaos()

	for image, gen := range map[string]uint64{crashed: 2, copyWALDir(t, dir): 3} {
		rv := mustDurableView(t, image)
		if rv.Generation() != gen {
			t.Fatalf("reopened at generation %d, want %d", rv.Generation(), gen)
		}
		if err := rv.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
		for i := uint64(1); i <= gen; i++ {
			if n := len(mustQuery(t, rv, fmt.Sprintf(`//student[ssn="S50%d"]`, i))); n == 0 {
				t.Fatalf("image at generation %d lost student S50%d", gen, i)
			}
		}
		if err := rv.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFailedSealDegradesTheView: an automatic checkpoint whose file lands but
// whose log cannot rotate — a directory squats on the name of the next
// segment — has killed the log. The commit that triggered it stands, the
// view is degraded when that commit returns, and once the blocker is gone
// Recover restores read-write at the same generation, which a reopen finds.
func TestFailedSealDegradesTheView(t *testing.T) {
	dir := t.TempDir()
	var warnings []string
	v := mustDurableView(t, dir, rxview.WithCheckpointEvery(2),
		rxview.WithRecoveryWarn(func(msg string) { warnings = append(warnings, msg) }))
	defer v.Close()
	blocker := filepath.Join(dir, fmt.Sprintf("wal-%020d.xvl", 2))
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	insertStudent(t, v, "S511")
	insertStudent(t, v, "S512") // generation 2 triggers the checkpoint
	if !v.Degraded() {
		t.Fatalf("the view serves read-write on a dead log; warnings: %q", warnings)
	}
	if len(warnings) == 0 || !strings.Contains(warnings[0], "checkpoint at generation 2 failed") {
		t.Fatalf("warnings: %q", warnings)
	}
	u := rxview.Insert(`//course[cno="CS650"]/takenBy`, "student", rxview.Str("S513"), rxview.Str("X"))
	if _, err := v.Apply(context.Background(), u); !errors.Is(err, rxview.ErrDegraded) {
		t.Fatalf("a write on the degraded view: %v, want ErrDegraded", err)
	}

	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	if err := v.Recover(); err != nil {
		t.Fatal(err)
	}
	if v.Degraded() || v.Generation() != 2 {
		t.Fatalf("after Recover: degraded %v at generation %d, want read-write at 2", v.Degraded(), v.Generation())
	}
	rv := mustDurableView(t, copyWALDir(t, dir))
	defer rv.Close()
	if rv.Generation() != 2 {
		t.Fatalf("reopened at generation %d, want 2", rv.Generation())
	}
	insertStudent(t, v, "S513")
}

// TestRecoveredViewSealsInsteadOfCheckpointing: a view that recovered its
// state from disk starts a fresh segment and serves; it does not write the
// state it has just read back out. The suffix it replayed keeps counting
// toward the next automatic checkpoint, and a crash before that checkpoint
// recovers across three segments from the one checkpoint there is.
func TestRecoveredViewSealsInsteadOfCheckpointing(t *testing.T) {
	const every = 8
	dir := t.TempDir()
	v := mustDurableView(t, dir, rxview.WithCheckpointEvery(every))
	for i := 0; i < 3; i++ {
		insertStudent(t, v, fmt.Sprintf("S40%d", i))
	}
	// Crash, reopen, fewer than `every` commits; twice.
	image := copyWALDir(t, dir)
	for round := 1; round <= 2; round++ {
		rv := mustDurableView(t, image, rxview.WithCheckpointEvery(every))
		if ckpts, _ := walShape(t, image); fmt.Sprint(ckpts) != "[0]" {
			t.Fatalf("round %d: reopening wrote a checkpoint: %v", round, ckpts)
		}
		if got := rv.LandedCheckpoint(); got != 0 {
			t.Fatalf("round %d: recovered view counts from checkpoint %d, want 0", round, got)
		}
		for i := 0; i < 2; i++ {
			insertStudent(t, rv, fmt.Sprintf("S4%d%d", round, i))
		}
		image = copyWALDir(t, image)
	}
	if ckpts, segs := walShape(t, image); fmt.Sprint(ckpts, segs) != "[0] [0 3 5]" {
		t.Fatalf("crash image: checkpoints %v, segments %v", ckpts, segs)
	}
	rv := mustDurableView(t, image, rxview.WithCheckpointEvery(every))
	defer rv.Close()
	if rv.Generation() != 7 {
		t.Fatalf("recovered generation %d across three segments, want 7", rv.Generation())
	}
	if err := rv.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if n := len(mustQuery(t, rv, `//course[cno="CS650"]/takenBy/student`)); n < 7 {
		t.Fatalf("%d students under CS650 after recovery, want the 7 inserted and the original ones", n)
	}
	// The eighth commit since checkpoint 0 is the first this view makes.
	insertStudent(t, rv, "S499")
	if got := rv.LandedCheckpoint(); got != 8 {
		t.Fatalf("newest landed checkpoint %d, want the automatic one at 8", got)
	}
}

func TestCorruptLogErrorRoundTrip(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	v := mustDurableView(t, dir)
	if _, err := v.Apply(ctx, rxview.Insert(`.`, "course", rxview.Str("CS820"), rxview.Str("Doomed"))); err != nil {
		t.Fatal(err)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	// Damage every checkpoint: recovery has nothing to boot from.
	info, err := rxview.InspectWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range info.Checkpoints {
		b, err := os.ReadFile(c.Path)
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)-1] ^= 0xff
		if err := os.WriteFile(c.Path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	atg, db, err := rxview.NewRegistrar()
	if err != nil {
		t.Fatal(err)
	}
	_, err = rxview.Open(atg, db, rxview.WithDurability(dir))
	if err == nil {
		t.Fatal("open over corrupt checkpoints succeeded")
	}
	if !errors.Is(err, rxview.ErrCorruptLog) {
		t.Fatalf("errors.Is(err, ErrCorruptLog) = false for %v", err)
	}
	var cle *rxview.CorruptLogError
	if !errors.As(err, &cle) {
		t.Fatalf("errors.As *CorruptLogError failed for %v", err)
	}
	if cle.Dir != dir || cle.Unwrap() == nil {
		t.Fatalf("error detail incomplete: %+v", cle)
	}
	if errors.Is(err, rxview.ErrCheckpointMismatch) {
		t.Fatal("corrupt log also matches ErrCheckpointMismatch")
	}
}

func TestCheckpointMismatchErrorRoundTrip(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	v := mustDurableView(t, dir, rxview.WithFsync(rxview.FsyncOff), rxview.WithCheckpointEvery(1<<30))
	for i := 0; i < 3; i++ {
		u := rxview.Insert(`//course[cno="CS650"]/takenBy`, "student",
			rxview.Str(fmt.Sprintf("S9%02d", i)), rxview.Str("Gap"))
		if _, err := v.Apply(ctx, u); err != nil {
			t.Fatal(err)
		}
	}
	// Splice the middle record out of the segment: the frames around it
	// stay valid, so the log reads cleanly but generation 2 is missing.
	info, err := rxview.InspectWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	seg := info.Segments[0]
	if len(seg.Records) != 3 {
		t.Fatalf("expected 3 records, got %+v", seg.Records)
	}
	b, err := os.ReadFile(seg.Path)
	if err != nil {
		t.Fatal(err)
	}
	total := seg.Records[0].Bytes + seg.Records[1].Bytes + seg.Records[2].Bytes
	start1 := len(b) - total + seg.Records[0].Bytes // start of record for generation 2
	end1 := start1 + seg.Records[1].Bytes
	spliced := append(append([]byte{}, b[:start1]...), b[end1:]...)
	if err := os.WriteFile(seg.Path, spliced, 0o644); err != nil {
		t.Fatal(err)
	}
	atg, db, err := rxview.NewRegistrar()
	if err != nil {
		t.Fatal(err)
	}
	_, err = rxview.Open(atg, db, rxview.WithDurability(dir))
	if err == nil {
		t.Fatal("open over a generation gap succeeded")
	}
	if !errors.Is(err, rxview.ErrCheckpointMismatch) {
		t.Fatalf("errors.Is(err, ErrCheckpointMismatch) = false for %v", err)
	}
	var cme *rxview.CheckpointMismatchError
	if !errors.As(err, &cme) {
		t.Fatalf("errors.As *CheckpointMismatchError failed for %v", err)
	}
	if cme.Dir != dir || cme.Unwrap() == nil {
		t.Fatalf("error detail incomplete: %+v", cme)
	}
	if errors.Is(err, rxview.ErrCorruptLog) {
		t.Fatal("mismatch also matches ErrCorruptLog")
	}
}

func TestRecoveryWarnSurfacesTornTail(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	v := mustDurableView(t, dir, rxview.WithFsync(rxview.FsyncOff), rxview.WithCheckpointEvery(1<<30))
	for i := 0; i < 2; i++ {
		u := rxview.Insert(`//course[cno="CS650"]/takenBy`, "student",
			rxview.Str(fmt.Sprintf("S8%02d", i)), rxview.Str("Torn"))
		if _, err := v.Apply(ctx, u); err != nil {
			t.Fatal(err)
		}
	}
	info, err := rxview.InspectWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	seg := info.Segments[0]
	b, err := os.ReadFile(seg.Path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg.Path, b[:len(b)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	var warnings []string
	atg, db, err := rxview.NewRegistrar()
	if err != nil {
		t.Fatal(err)
	}
	v2, err := rxview.Open(atg, db, rxview.WithDurability(dir),
		rxview.WithRecoveryWarn(func(msg string) { warnings = append(warnings, msg) }))
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	if v2.Generation() != 1 {
		t.Fatalf("recovered generation %d, want 1 (torn final record dropped)", v2.Generation())
	}
	if len(warnings) == 0 {
		t.Fatal("torn tail produced no warning")
	}
}

func TestNonDurableViewHasNoDurabilitySurface(t *testing.T) {
	ctx := context.Background()
	view := mustView(t)
	if _, err := view.Apply(ctx, rxview.Insert(`.`, "course", rxview.Str("CS830"), rxview.Str("Plain"))); err != nil {
		t.Fatal(err)
	}
	// Checkpoint and Close are explicit no-ops without WithDurability.
	if err := view.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint on non-durable view: %v", err)
	}
	if err := view.Close(); err != nil {
		t.Fatalf("Close on non-durable view: %v", err)
	}
	// The view stays fully usable.
	if _, err := view.Apply(ctx, rxview.Insert(`.`, "course", rxview.Str("CS831"), rxview.Str("Still"))); err != nil {
		t.Fatal(err)
	}
	// It builds no commit records, so it keeps no state digest either.
	if d, ok := view.Digest(); ok || d != (rxview.Digest{}) || d.String() != "none" {
		t.Fatalf("Digest on non-durable view: %s, %v", d, ok)
	}
	if _, ok := view.Snapshot().Digest(); ok {
		t.Fatal("a non-durable view's snapshot carries a digest")
	}
}

func TestCheckpointDuringOpenTxRefused(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	v := mustDurableView(t, dir)
	defer v.Close()
	tx, err := v.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Checkpoint(); !errors.Is(err, rxview.ErrTxOpen) {
		t.Fatalf("Checkpoint during open tx: %v, want ErrTxOpen", err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := v.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint after rollback: %v", err)
	}
}

func TestInspectCheckpointDetail(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	v := mustDurableView(t, dir)
	if _, err := v.Apply(ctx, rxview.Insert(`.`, "course", rxview.Str("CS840"), rxview.Str("Meta"))); err != nil {
		t.Fatal(err)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	det, err := rxview.InspectCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if det.Gen != 1 {
		t.Fatalf("checkpoint generation %d, want 1", det.Gen)
	}
	if det.LiveNodes == 0 || det.Edges == 0 {
		t.Fatalf("implausible detail: %+v", det)
	}
	var courseRows int
	for _, tb := range det.Tables {
		if tb.Name == "course" {
			courseRows = tb.Rows
		}
	}
	if courseRows == 0 {
		t.Fatalf("no course rows in %+v", det.Tables)
	}
}

// TestFallbackRecoveryCheckpointsAtBoot: a recovery that fell back past an
// unreadable newest checkpoint must not go on serving with the one good
// checkpoint it found — it writes another at boot — while a clean reopen
// still writes none. Two shapes: the view was closed at the damaged
// checkpoint's generation (the boot checkpoint replaces the damaged file),
// and it crashed with records past it (the damaged file would otherwise
// count as one of the two newest and push the good one out at the prune).
func TestFallbackRecoveryCheckpointsAtBoot(t *testing.T) {
	ctx := context.Background()
	for _, past := range []int{0, 2} {
		t.Run(fmt.Sprintf("records-past-the-checkpoint=%d", past), func(t *testing.T) {
			dir := t.TempDir()
			v := mustDurableView(t, dir)
			insert := func(i int) {
				t.Helper()
				u := rxview.Insert(`//course[cno="CS650"]/takenBy`, "student",
					rxview.Str(fmt.Sprintf("S7%02d", i)), rxview.Str("X"))
				if _, err := v.Apply(ctx, u); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 3; i++ {
				insert(i)
			}
			if err := v.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < past; i++ {
				insert(3 + i)
			}
			want := fingerprint(t, v)
			// No Close: the directory is a crash image with ckpt-0 and ckpt-3.

			damaged := filepath.Join(dir, fmt.Sprintf("ckpt-%020d.xvc", 3))
			b, err := os.ReadFile(damaged)
			if err != nil {
				t.Fatal(err)
			}
			b[len(b)/2] ^= 0x40
			if err := os.WriteFile(damaged, b, 0o644); err != nil {
				t.Fatal(err)
			}

			var warnings []string
			warn := rxview.WithRecoveryWarn(func(msg string) { warnings = append(warnings, msg) })
			v2 := mustDurableView(t, dir, warn)
			if len(warnings) != 1 || !strings.Contains(warnings[0], "falling back") {
				t.Fatalf("warnings of the fallback recovery: %q", warnings)
			}
			if got := fingerprint(t, v2); got != want {
				t.Fatalf("recovered state differs:\n%s\nvs\n%s", got, want)
			}
			if got, want := v2.LandedCheckpoint(), uint64(3+past); got != want {
				t.Fatalf("boot checkpoint at generation %d, want %d", got, want)
			}
			info, err := rxview.InspectWAL(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(info.Checkpoints) != 2 {
				t.Fatalf("checkpoints on disk after the boot: %+v", info.Checkpoints)
			}
			for _, c := range info.Checkpoints {
				if c.Err != "" {
					t.Fatalf("checkpoint %d still unreadable: %s", c.Gen, c.Err)
				}
			}
			// Crash again: the second recovery has nothing to complain
			// about, and, being clean, writes no checkpoint.
			warnings = nil
			v3 := mustDurableView(t, dir, warn)
			defer v3.Close()
			if len(warnings) != 0 {
				t.Fatalf("second reopen warned: %q", warnings)
			}
			if got := fingerprint(t, v3); got != want {
				t.Fatalf("state after the second reopen differs:\n%s\nvs\n%s", got, want)
			}
			after, err := rxview.InspectWAL(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(after.Checkpoints) != 2 || after.Checkpoints[1].Gen != info.Checkpoints[1].Gen {
				t.Fatalf("a clean reopen wrote a checkpoint: %+v", after.Checkpoints)
			}
		})
	}
}
