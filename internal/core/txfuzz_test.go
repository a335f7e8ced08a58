package core

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rxview/internal/ckpt"
	"rxview/internal/dag"
	"rxview/internal/relational"
	"rxview/internal/testkit"
	"rxview/internal/wal"
	"rxview/internal/workload"
)

// maxTxnStages bounds a fuzzed group's script.
const maxTxnStages = 8

// txnScript is one fuzzed transaction group over the registrar view: its
// mode, how it ends, whether the student table starts a full checkpoint
// range, whether its dry runs run before Begin instead of inside the group,
// and the stages it runs.
type txnScript struct {
	atomic, commit, grown, dryOutside bool
	stages                            []txnStage
}

type txnStage struct {
	stmt     string
	canceled bool // staged under an already-canceled context
	dry      bool // dry-run, not staged
}

// parseTxnScript turns fuzz bytes into a script. The first byte picks the
// mode (bit 0: atomic), the ending (bit 1: Commit, else Rollback), the
// instance (bit 2: grown, see openScripted) and where dry runs go (bit 3:
// before Begin); each later byte is one stage kind (byte mod 8) with a
// parameter (byte / 8). A kind that no longer fits in maxTxnStages ends the
// script.
func parseTxnScript(b []byte) txnScript {
	var sc txnScript
	if len(b) == 0 {
		return sc
	}
	sc.atomic, sc.commit, sc.grown, sc.dryOutside = b[0]&1 != 0, b[0]&2 != 0, b[0]&4 != 0, b[0]&8 != 0
	courses := []string{"CS650", "CS320", "CS240"}
	for _, c := range b[1:] {
		n := int(c / 8)
		var stages []txnStage
		switch c % 8 {
		case 0: // a fresh insert
			stages = []txnStage{{stmt: freshInsert(n, courses)}}
		case 1: // a delete whose edges take nodes with them (the GC cascade)
			stages = []txnStage{{stmt: []string{
				`delete //course[cno="CS240"]`,
				`delete //student[ssn="S02"]`,
				`delete //course[cno="CS320"]`,
				fmt.Sprintf(`delete //course[cno="CS9%d"]`, n%4),
			}[n%4]}}
		case 2: // a delete, then the same identity back: a resurrected NodeID
			stages = []txnStage{
				{stmt: `delete //student[ssn="S01"]`},
				{stmt: fmt.Sprintf(`insert student(ssn="S01", name="Ann") into //course[cno="%s"]/takenBy`, courses[n%3])},
			}
		case 3: // XML side effects: CS320's prereq is shared, the path selects one occurrence
			stages = []txnStage{{stmt: sideEffectInsert(n)}}
		case 4: // untranslatable: EE100 exists outside the view's CS selection
			stages = []txnStage{{stmt: `insert course(cno="EE100", title="Circuits") into .`}}
		case 5: // a fresh insert, canceled before it runs
			stages = []txnStage{{stmt: freshInsert(n, courses), canceled: true}}
		case 6: // a prereq insert: its course's dept is a fresh value
			stages = []txnStage{{stmt: prereqInsert(n, courses)}}
		default: // a dry run of one of the above
			stages = []txnStage{{dry: true, stmt: []string{
				freshInsert(n/4, courses),
				`delete //course[cno="CS650"]`,
				sideEffectInsert(n / 4),
				prereqInsert(n/4, courses),
			}[n%4]}}
		}
		if len(sc.stages)+len(stages) > maxTxnStages {
			break
		}
		sc.stages = append(sc.stages, stages...)
	}
	return sc
}

func sideEffectInsert(n int) string {
	return fmt.Sprintf(`insert course(cno="CS7%d", title="Side") into course[cno="CS650"]//course[cno="CS320"]/prereq`, n%4)
}

func prereqInsert(n int, courses []string) string {
	return fmt.Sprintf(`insert course(cno="CS8%d", title="Prereq %d") into //course[cno="%s"]/prereq`, n%4, n%4, courses[n/4%3])
}

func freshInsert(n int, courses []string) string {
	if n%2 == 0 {
		return fmt.Sprintf(`insert course(cno="CS9%d", title="Fresh %d") into .`, n/2%4, n/2%4)
	}
	return fmt.Sprintf(`insert student(ssn="S9%d", name="Fresh %d") into //course[cno="%s"]/takenBy`, n/2%4, n/2%4, courses[n/2%3])
}

// FuzzTxnGroup runs a scripted transaction group on the registrar view, once
// on a system with a commit sink (and a state digest) and once on one with
// neither, and holds it to the group contract. Checkpoints are written before
// the group, after it, once more at the same generation and once after a
// recovery from the last of them, and each is held to the encoding with no
// index (ckptOracle). An atomic group that rolls
// back — explicitly, or at Commit because a stage doomed it — leaves the
// state exactly as before Begin: DAG, database, generation and digest
// (stateFingerprint), the source index (CheckConsistency) and the fresh-value
// counter. Any other group leaves the state its applied stages leave when
// run one by one on a twin. With a sink, a follower that replays the sunk
// records through ApplyCommitRecord ends in the same state too. A dry run,
// inside the group or before it, answers what a twin's Apply of the same
// update at that point answers, and changes nothing (checkDryRun).
func FuzzTxnGroup(f *testing.F) {
	for _, seed := range append(txnGroupSeeds, txnDryRunSeeds...) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		sc := parseTxnScript(script)
		for _, durable := range []bool{true, false} {
			runTxnScript(t, sc, durable)
		}
	})
}

// txnGroupSeeds is FuzzTxnGroup's seed corpus.
var txnGroupSeeds = [][]byte{
	// Atomic rollback over inserts, a cascading delete, a resurrection.
	{0x01, 0x00, 0x08, 0x01, 0x02, 0x11, 0x09},
	// The same group, committed.
	{0x03, 0x00, 0x08, 0x01, 0x02, 0x11, 0x09},
	// Atomic, doomed by a side effect after applied stages; Commit unwinds.
	{0x03, 0x00, 0x09, 0x03, 0x08},
	// Atomic, doomed by an untranslatable insert; explicit Rollback.
	{0x01, 0x02, 0x00, 0x04},
	// Atomic: a canceled stage does not doom, later stages commit.
	{0x03, 0x05, 0x00, 0x19},
	// Prefix: every kind, failures in between; Commit.
	{0x02, 0x00, 0x03, 0x01, 0x04, 0x05, 0x02, 0x08},
	// Prefix: Rollback keeps the applied prefix.
	{0x00, 0x10, 0x09, 0x02, 0x03, 0x11, 0x01},
	// Nothing staged.
	{0x03},
	// Grown: a student past the student table's first checkpoint range, committed.
	{0x07, 0x08, 0x00},
	// Grown: the same insert rolled back, its fresh ids freed.
	{0x05, 0x08, 0x00},
	// Grown, prefix: a resurrection and a cascading delete, committed.
	{0x06, 0x02, 0x08, 0x01},
	// Deletions alone: the identity table changes by alive flags only.
	{0x03, 0x01, 0x09},
}

// txnDryRunSeeds are the seeds with fresh-value inserts and dry runs, kept
// apart from txnGroupSeeds because TestTranslatorAnswersUnchanged pins the
// translator's answers over those.
var txnDryRunSeeds = [][]byte{
	// Atomic rollback over a fresh-value insert, with dry runs of another
	// and of a cascading delete in between: the counter comes back too.
	{0x01, 0x06, 0x1f, 0x01, 0x0f},
	// The same group, committed.
	{0x03, 0x06, 0x1f, 0x01, 0x0f},
	// Atomic, doomed by an untranslatable insert after a fresh-value insert;
	// a dry run on the doomed group.
	{0x03, 0x06, 0x04, 0x1f},
	// Prefix, committed, every dry run before Begin.
	{0x0a, 0x07, 0x0f, 0x17, 0x1f, 0x06},
}

// openScripted opens the registrar view; grown fills its student table to
// exactly one checkpoint range first (relational.RangeLen rows), with
// students no course takes, so the view is the registrar's and the first
// student a script inserts starts the table's second range.
func openScripted(t *testing.T, opts Options, grown bool) *System {
	t.Helper()
	if !grown {
		return openRegistrar(t, opts)
	}
	reg := testkit.Must(workload.NewRegistrar())
	students := reg.DB.Rel("student")
	for i := 0; students.Len() < relational.RangeLen; i++ {
		testkit.Insert(students, relational.Str(fmt.Sprintf("P%03d", i)), relational.Str("Pad"))
	}
	s, err := Open(reg.ATG, reg.DB, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// ckptOracle writes a system's checkpoints the way a durable view does —
// each encoded against the index of the one before, which then lands in a
// file of its own — and holds each payload to the encoding of the same
// state with no index, byte for byte, and to the reference
// (testkit.CheckPayload).
type ckptOracle struct {
	dir  string
	prev *ckpt.Index
	last []byte // the payload written last
}

func checkpointState(s *System) ckpt.State {
	return ckpt.State{Gen: s.gen, Digest: s.digest, ATG: s.ATG.Fingerprint(), DB: s.DB, DAG: s.DAG}
}

// write writes a checkpoint of s and returns the bytes it read back.
func (o *ckptOracle) write(t *testing.T, s *System, when string) int {
	t.Helper()
	state := checkpointState(s)
	buf, ix := ckpt.Encode(state, o.prev)
	full, _ := ckpt.Encode(state, nil)
	payload := buf[wal.CheckpointHeadroom:]
	if !bytes.Equal(payload, full[wal.CheckpointHeadroom:]) {
		t.Fatalf("%s: the checkpoint differs from the encoding with no index", when)
	}
	if err := testkit.CheckPayload(payload, wal.Format, state.Gen, state.Digest.Append(nil), state.ATG[:], s.DB, s.DAG); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
	path := filepath.Join(o.dir, fmt.Sprintf("ckpt-%d", state.Gen))
	if err := os.WriteFile(path, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	ix.Landed(path, 0)
	o.prev, o.last = ix, payload
	return ix.Reused()
}

// recover restores a system from the payload written last, as a reopen
// does: new DAG and relation objects, the index's no longer.
func (o *ckptOracle) recover(t *testing.T, s *System) *System {
	t.Helper()
	p, err := ckpt.Decode(o.last)
	if err != nil {
		t.Fatal(err)
	}
	d, err := dag.DecodeState(p.DAGState)
	if err != nil {
		t.Fatal(err)
	}
	db := relational.NewDatabase(s.DB.Schema)
	for _, tb := range p.Tables {
		if err := db.Load(tb.Name, tb.Rows); err != nil {
			t.Fatal(err)
		}
	}
	r, err := Recover(s.ATG, db, d, p.Gen, p.Digest, nil, s.opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func runTxnScript(t *testing.T, sc txnScript, durable bool) {
	t.Helper()
	ctx := context.Background()
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	open := func() (*System, *[]CommitRecord) {
		s := openScripted(t, Options{}, sc.grown)
		recs := new([]CommitRecord)
		if durable {
			s.StartDigest()
			s.SetCommitSink(func(rs []CommitRecord) error {
				*recs = append(*recs, rs...)
				return nil
			}, nil)
		}
		return s, recs
	}
	s, recs := open()
	var applied []string
	if sc.dryOutside {
		for _, st := range sc.stages {
			if st.dry {
				checkDryRun(t, s, st.stmt, applied, open)
			}
		}
	}
	ck := &ckptOracle{dir: t.TempDir()}
	ck.write(t, s, "before the group")
	before, freshBefore := stateFingerprint(s), s.Translator.Fresh()
	tx, err := s.Begin(sc.atomic)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range sc.stages {
		if st.dry {
			if !sc.dryOutside {
				checkDryRun(t, s, st.stmt, applied, open)
			}
			continue
		}
		stageCtx := ctx
		if st.canceled {
			stageCtx = canceled
		}
		rep, err := tx.Stage(stageCtx, mustOp(t, s, st.stmt))
		if err != nil && !benignRejection(err) && !isCtxErr(err) {
			t.Fatalf("durable=%v: stage %s: %v", durable, st.stmt, err)
		}
		if rep.Applied {
			applied = append(applied, st.stmt)
		}
	}
	doomed := tx.Err() != nil
	if sc.commit {
		err = tx.Commit(ctx)
	} else {
		err = tx.Rollback()
	}
	if err != nil && !(doomed && benignRejection(err)) {
		t.Fatalf("durable=%v: closing the group: %v", durable, err)
	}
	unit := fmt.Sprintf("durable=%v atomic=%v commit=%v group %+v (applied %q)", durable, sc.atomic, sc.commit, sc.stages, applied)
	got := stateFingerprint(s)
	if sc.atomic && (!sc.commit || doomed) {
		if got != before {
			t.Fatalf("%s: the rollback left a trace:\n--- after ---\n%s\n--- before Begin ---\n%s", unit, got, before)
		}
		if fresh := s.Translator.Fresh(); fresh != freshBefore {
			t.Fatalf("%s: the rollback left the fresh-value counter at %d, not %d", unit, fresh, freshBefore)
		}
		if len(*recs) != 0 {
			t.Fatalf("%s: a rolled-back group sank %d record(s)", unit, len(*recs))
		}
	} else {
		twin, _ := open()
		for _, stmt := range applied {
			if rep, err := twin.Execute(stmt); err != nil || !rep.Applied {
				t.Fatalf("%s: on the twin, %s: applied=%v err=%v", unit, stmt, rep.Applied, err)
			}
		}
		wantGen := uint64(len(applied))
		if sc.atomic && wantGen > 0 {
			wantGen = 1
		}
		if s.Generation() != wantGen {
			t.Fatalf("%s: generation %d, want %d", unit, s.Generation(), wantGen)
		}
		dropGen := func(fp string) string { return strings.SplitN(fp, "\n", 2)[1] }
		if want := stateFingerprint(twin); dropGen(got) != dropGen(want) {
			t.Fatalf("%s: state differs from the applied stages run one by one:\n--- group ---\n%s\n--- twin ---\n%s", unit, got, want)
		}
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatalf("%s: %v", unit, err)
	}
	if durable {
		follower := openScripted(t, Options{}, sc.grown)
		follower.StartDigest()
		for _, rec := range *recs {
			if err := follower.ApplyCommitRecord(rec); err != nil {
				t.Fatalf("%s: follower: %v", unit, err)
			}
		}
		if want := stateFingerprint(follower); got != want {
			t.Fatalf("%s: the sunk records replay to a different state:\n--- group ---\n%s\n--- follower ---\n%s", unit, got, want)
		}
		if err := follower.CheckConsistency(); err != nil {
			t.Fatalf("%s: follower: %v", unit, err)
		}
	}
	ck.write(t, s, unit+": after the group")
	if ck.write(t, s, unit+": again at the same generation") == 0 {
		t.Fatalf("%s: a checkpoint of an unchanged state read nothing back", unit)
	}
	last := ck.last
	r := ck.recover(t, s)
	if ck.write(t, r, unit+": after a recovery") != 0 {
		t.Fatalf("%s: a checkpoint of a recovered state read back what the old objects' index recorded", unit)
	}
	if !bytes.Equal(ck.last, last) {
		t.Fatalf("%s: the recovered state writes other bytes than the state it was recovered from", unit)
	}
}

// checkDryRun dry-runs stmt on s, whose state is its applied stages' over
// the opened view, and holds it to a twin's Apply of stmt in that state: the
// same report (timings aside) and error. The dry run must leave the state,
// the digest, the source index and the fresh-value counter as they were.
func checkDryRun(t *testing.T, s *System, stmt string, applied []string, open func() (*System, *[]CommitRecord)) {
	t.Helper()
	before, fresh := stateFingerprint(s), s.Translator.Fresh()
	dry, errD := s.DryRun(mustOp(t, s, stmt))
	if got := stateFingerprint(s); got != before {
		t.Fatalf("dry run %s left a trace:\n--- after ---\n%s\n--- before ---\n%s", stmt, got, before)
	}
	if got := s.Translator.Fresh(); got != fresh {
		t.Fatalf("dry run %s moved the fresh-value counter from %d to %d", stmt, fresh, got)
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatalf("dry run %s: %v", stmt, err)
	}
	twin, _ := open()
	for _, a := range applied {
		if rep, err := twin.Execute(a); err != nil || !rep.Applied {
			t.Fatalf("dry run %s: on the twin, %s: applied=%v err=%v", stmt, a, rep.Applied, err)
		}
	}
	wet, errW := twin.Apply(mustOp(t, twin, stmt))
	if fmt.Sprint(errD) != fmt.Sprint(errW) {
		t.Fatalf("dry run %s after %q: err %v, the twin's Apply: %v", stmt, applied, errD, errW)
	}
	dry.Timings, wet.Timings = Timings{}, Timings{}
	if !reflect.DeepEqual(dry, wet) {
		t.Fatalf("dry run %s after %q differs from the twin's Apply:\n dry:   %+v\n apply: %+v", stmt, applied, dry, wet)
	}
}
