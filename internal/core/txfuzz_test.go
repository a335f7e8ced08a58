package core

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// maxTxnStages bounds a fuzzed group's script.
const maxTxnStages = 8

// txnScript is one fuzzed transaction group over the registrar view: its
// mode, how it ends, and the stages it runs.
type txnScript struct {
	atomic, commit bool
	stages         []txnStage
}

type txnStage struct {
	stmt     string
	canceled bool // staged under an already-canceled context
}

// parseTxnScript turns fuzz bytes into a script. The first byte picks the
// mode (bit 0: atomic) and the ending (bit 1: Commit, else Rollback); each
// later byte is one stage kind (byte mod 6) with a parameter (byte / 6). A
// kind that no longer fits in maxTxnStages ends the script.
func parseTxnScript(b []byte) txnScript {
	var sc txnScript
	if len(b) == 0 {
		return sc
	}
	sc.atomic, sc.commit = b[0]&1 != 0, b[0]&2 != 0
	courses := []string{"CS650", "CS320", "CS240"}
	for _, c := range b[1:] {
		n := int(c / 6)
		var stages []txnStage
		switch c % 6 {
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
			stages = []txnStage{{stmt: fmt.Sprintf(`insert course(cno="CS7%d", title="Side") into course[cno="CS650"]//course[cno="CS320"]/prereq`, n%4)}}
		case 4: // untranslatable: EE100 exists outside the view's CS selection
			stages = []txnStage{{stmt: `insert course(cno="EE100", title="Circuits") into .`}}
		default: // a fresh insert, canceled before it runs
			stages = []txnStage{{stmt: freshInsert(n, courses), canceled: true}}
		}
		if len(sc.stages)+len(stages) > maxTxnStages {
			break
		}
		sc.stages = append(sc.stages, stages...)
	}
	return sc
}

func freshInsert(n int, courses []string) string {
	if n%2 == 0 {
		return fmt.Sprintf(`insert course(cno="CS9%d", title="Fresh %d") into .`, n/2%4, n/2%4)
	}
	return fmt.Sprintf(`insert student(ssn="S9%d", name="Fresh %d") into //course[cno="%s"]/takenBy`, n/2%4, n/2%4, courses[n/2%3])
}

// FuzzTxnGroup runs a scripted transaction group on the registrar view, once
// on a system with a commit sink (and a state digest) and once on one with
// neither, and holds it to the group contract. An atomic group that rolls
// back — explicitly, or at Commit because a stage doomed it — leaves the
// state exactly as before Begin: DAG, database, L, generation and digest
// (stateFingerprint), and the source index (CheckConsistency). Any other
// group leaves the state its applied stages leave when run one by one on a
// twin. With a sink, a follower that replays the sunk records through
// ApplyCommitRecord ends in the same state too, L's entry sequence included.
func FuzzTxnGroup(f *testing.F) {
	for _, seed := range txnGroupSeeds {
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
	{0x01, 0x00, 0x06, 0x01, 0x02, 0x0d, 0x07},
	// The same group, committed.
	{0x03, 0x00, 0x06, 0x01, 0x02, 0x0d, 0x07},
	// Atomic, doomed by a side effect after applied stages; Commit unwinds.
	{0x03, 0x00, 0x07, 0x03, 0x06},
	// Atomic, doomed by an untranslatable insert; explicit Rollback.
	{0x01, 0x02, 0x00, 0x04},
	// Atomic: a canceled stage does not doom, later stages commit.
	{0x03, 0x05, 0x00, 0x13},
	// Prefix: every kind, failures in between; Commit.
	{0x02, 0x00, 0x03, 0x01, 0x04, 0x05, 0x02, 0x06},
	// Prefix: Rollback keeps the applied prefix.
	{0x00, 0x0c, 0x07, 0x02, 0x03, 0x0d, 0x01},
	// Nothing staged.
	{0x03},
}

func runTxnScript(t *testing.T, sc txnScript, durable bool) {
	t.Helper()
	ctx := context.Background()
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	open := func() (*System, *[]CommitRecord) {
		s := openRegistrar(t, Options{})
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
	before := stateFingerprint(s)
	tx, err := s.Begin(sc.atomic)
	if err != nil {
		t.Fatal(err)
	}
	var applied []string
	for _, st := range sc.stages {
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
		follower := openRegistrar(t, Options{})
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
}
