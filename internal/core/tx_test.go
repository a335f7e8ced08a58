package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"rxview/internal/relational"
	"rxview/internal/update"
)

// stateFingerprint renders everything a transaction must restore on
// rollback: the DAG (node identities with exact sibling order), the
// database (every tuple of every table), the generation and the digest. Two
// states with equal fingerprints are indistinguishable to every read and
// write path. (The translator's source index, the one other thing a rollback
// restores, is compared with a rebuild by CheckConsistency.)
func stateFingerprint(s *System) string {
	var b strings.Builder
	fmt.Fprintf(&b, "gen=%d\ndigest=%s\n", s.Generation(), s.digest)
	b.WriteString("dag:\n")
	for _, u := range s.DAG.Nodes() {
		fmt.Fprintf(&b, "  %s(%s):", s.DAG.Type(u), s.DAG.Attr(u))
		for _, v := range s.DAG.Children(u) {
			fmt.Fprintf(&b, " %s(%s)", s.DAG.Type(v), s.DAG.Attr(v))
		}
		b.WriteString("\n")
	}
	b.WriteString("db:\n")
	for _, name := range s.DB.Schema.TableNames() {
		rows := []string{}
		s.DB.Rel(name).Scan(func(tup relational.Tuple) bool {
			rows = append(rows, tup.String())
			return true
		})
		sort.Strings(rows)
		fmt.Fprintf(&b, "  %s: %s\n", name, strings.Join(rows, " "))
	}
	return b.String()
}

func mustOp(t *testing.T, s *System, stmt string) *update.Op {
	t.Helper()
	op, err := update.ParseStatement(s.ATG, stmt)
	if err != nil {
		t.Fatalf("parse %q: %v", stmt, err)
	}
	return op
}

// The canonical happy-path group: fresh course CS111 with two prereq edges
// plus a deletion, exercising insertion, deletion after insertion and the GC
// cascade inside one transaction.
var txGroup = []string{
	`insert course(cno="CS111", title="Intro") into .`,
	`insert course(cno="CS112", title="Intro II") into //course[cno="CS111"]/prereq`,
	`delete //course[cno="CS320"]//student[ssn="S02"]`,
	`insert student(ssn="S09", name="Ida") into //course[cno="CS112"]/takenBy`,
}

func TestTxnCommitStateEqualsSequentialApplies(t *testing.T) {
	ctx := context.Background()
	txSys := openRegistrar(t, Options{})
	seqSys := openRegistrar(t, Options{})

	tx, err := txSys.Begin(true)
	if err != nil {
		t.Fatal(err)
	}
	for _, stmt := range txGroup {
		if _, err := tx.Stage(ctx, mustOp(t, txSys, stmt)); err != nil {
			t.Fatalf("stage %q: %v", stmt, err)
		}
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	for _, stmt := range txGroup {
		if _, err := seqSys.Execute(stmt); err != nil {
			t.Fatalf("apply %q: %v", stmt, err)
		}
	}

	txFP, seqFP := stateFingerprint(txSys), stateFingerprint(seqSys)
	// Generations differ by design: one per transaction vs one per update.
	if txSys.Generation() != 1 {
		t.Fatalf("tx generation = %d, want 1", txSys.Generation())
	}
	if seqSys.Generation() != uint64(len(txGroup)) {
		t.Fatalf("seq generation = %d, want %d", seqSys.Generation(), len(txGroup))
	}
	txFP = strings.Replace(txFP, "gen=1\n", "gen=*\n", 1)
	seqFP = strings.Replace(seqFP, fmt.Sprintf("gen=%d\n", len(txGroup)), "gen=*\n", 1)
	if txFP != seqFP {
		t.Fatalf("transaction state differs from sequential applies:\n--- tx ---\n%s\n--- seq ---\n%s", txFP, seqFP)
	}
	if err := txSys.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestTxnMiddleRejectionUnwindsToPreBegin(t *testing.T) {
	ctx := context.Background()
	s := openRegistrar(t, Options{}) // no ForceSideEffects: shared-subtree insert rejects
	want := stateFingerprint(s)

	tx, err := s.Begin(true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Stage(ctx, mustOp(t, s, txGroup[0])); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Stage(ctx, mustOp(t, s, txGroup[1])); err != nil {
		t.Fatal(err)
	}
	// CS320's prereq node is shared: inserting under it has XML side effects
	// and must be rejected, dooming the group.
	rejStmt := `insert course(cno="CS240X", title="X") into course[cno="CS650"]//course[cno="CS320"]/prereq`
	_, serr := tx.Stage(ctx, mustOp(t, s, rejStmt))
	if !IsSideEffect(serr) {
		t.Fatalf("stage err = %v, want side-effect rejection", serr)
	}
	if tx.Err() == nil || tx.ErrOp() == "" {
		t.Fatal("transaction not doomed after rejection")
	}
	// Later stages are refused with the group's error.
	if _, err := tx.Stage(ctx, mustOp(t, s, txGroup[3])); !IsSideEffect(err) {
		t.Fatalf("stage after doom = %v, want the doom error", err)
	}
	if err := tx.Commit(ctx); !IsSideEffect(err) {
		t.Fatalf("commit = %v, want the doom error", err)
	}
	if got := stateFingerprint(s); got != want {
		t.Fatalf("state after doomed commit differs from pre-Begin:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// The view is usable again.
	if _, err := s.Execute(txGroup[0]); err != nil {
		t.Fatal(err)
	}
}

func TestTxnExplicitRollbackAfterDeletes(t *testing.T) {
	ctx := context.Background()
	s := openRegistrar(t, Options{ForceSideEffects: true})
	want := stateFingerprint(s)

	tx, err := s.Begin(true)
	if err != nil {
		t.Fatal(err)
	}
	// Mix inserts and deletes so the rollback exercises every restore: the
	// journal (DAG), inverse ΔR (database) and the journal's delta undone (the
	// source index, checked by CheckConsistency below).
	stmts := []string{
		txGroup[0],
		txGroup[1],
		`delete //student[ssn="S02"]`, // GC cascade: node removed entirely
		`delete //course[cno="CS111"]/prereq/course[cno="CS112"]`,
		`insert student(ssn="S08", name="Hal") into //course[cno="CS111"]/takenBy`,
	}
	for _, stmt := range stmts {
		if _, err := tx.Stage(ctx, mustOp(t, s, stmt)); err != nil {
			t.Fatalf("stage %q: %v", stmt, err)
		}
	}
	if tx.Applied() == 0 {
		t.Fatal("nothing applied speculatively")
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := stateFingerprint(s); got != want {
		t.Fatalf("state after rollback differs from pre-Begin:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal("rollback must be idempotent")
	}
}

func TestTxnReadYourWritesAcrossStages(t *testing.T) {
	ctx := context.Background()
	s := openRegistrar(t, Options{})
	tx, err := s.Begin(true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Stage(ctx, mustOp(t, s, txGroup[0])); err != nil {
		t.Fatal(err)
	}
	// The staged insert must be visible to evaluation: the second stage
	// targets the course created by the first, and a query selects it.
	got, err := selectPath(s, `//course[cno="CS111"]`)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("staged write invisible: query = %v", got)
	}
	if _, err := tx.Stage(ctx, mustOp(t, s, txGroup[1])); err != nil {
		t.Fatalf("stage against staged state: %v", err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	got, err = selectPath(s, `//course[cno="CS111"]`)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatal("rolled-back write still visible")
	}
}

func TestTxnWriteGuardsWhileOpen(t *testing.T) {
	ctx := context.Background()
	s := openRegistrar(t, Options{})
	tx, err := s.Begin(true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Begin(true); !errors.Is(err, ErrTxOpen) {
		t.Fatalf("nested Begin = %v, want ErrTxOpen", err)
	}
	if _, err := s.Execute(txGroup[0]); !errors.Is(err, ErrTxOpen) {
		t.Fatalf("Execute during tx = %v, want ErrTxOpen", err)
	}
	if _, err := s.Begin(false); !errors.Is(err, ErrTxOpen) {
		t.Fatalf("non-atomic Begin during tx = %v, want ErrTxOpen", err)
	}
	// DryRun is read-only and savepoint-scoped: it may run inside the
	// transaction and answers against the staged state.
	if _, err := tx.Stage(ctx, mustOp(t, s, txGroup[0])); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DryRun(mustOp(t, s, txGroup[1])); err != nil {
		t.Fatalf("DryRun inside tx = %v", err)
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(ctx); !errors.Is(err, ErrTxDone) {
		t.Fatalf("double commit = %v, want ErrTxDone", err)
	}
	if _, err := tx.Stage(ctx, mustOp(t, s, txGroup[3])); !errors.Is(err, ErrTxDone) {
		t.Fatalf("stage after commit = %v, want ErrTxDone", err)
	}
}

// A staged insert's ΔV must cover only its own mutations, not everything
// the transaction journal has seen: insert X, delete X, then insert Y must
// behave exactly like the same three Apply calls (regression: Xinsert once
// read the journal's changes from its start, so Y's translation re-saw X's
// edges and rejected the group).
func TestTxnStageDeltaIsPerUpdate(t *testing.T) {
	ctx := context.Background()
	s := openRegistrar(t, Options{})
	tx, err := s.Begin(true)
	if err != nil {
		t.Fatal(err)
	}
	steps := []string{
		`insert course(cno="CS901", title="A") into .`,
		`delete //course[cno="CS901"]`,
		`insert course(cno="CS902", title="B") into .`,
	}
	for _, stmt := range steps {
		if _, err := tx.Stage(ctx, mustOp(t, s, stmt)); err != nil {
			t.Fatalf("stage %q: %v", stmt, err)
		}
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	oracle := openRegistrar(t, Options{})
	for _, stmt := range steps {
		if _, err := oracle.Execute(stmt); err != nil {
			t.Fatalf("apply %q: %v", stmt, err)
		}
	}
	got := strings.SplitN(stateFingerprint(s), "\n", 2)[1] // drop gen line
	want := strings.SplitN(stateFingerprint(oracle), "\n", 2)[1]
	if got != want {
		t.Fatalf("insert/delete/insert transaction diverged from sequential applies:\n--- tx ---\n%s\n--- seq ---\n%s", got, want)
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestTxnCancellationDoesNotDoom(t *testing.T) {
	s := openRegistrar(t, Options{})
	tx, err := s.Begin(true)
	if err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tx.Stage(canceled, mustOp(t, s, txGroup[0])); !errors.Is(err, context.Canceled) {
		t.Fatalf("stage = %v, want context.Canceled", err)
	}
	if tx.Err() != nil {
		t.Fatal("cancellation must not doom the transaction")
	}
	// The same update stages fine with a live context, and commits.
	ctx := context.Background()
	if _, err := tx.Stage(ctx, mustOp(t, s, txGroup[0])); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if s.Generation() != 1 {
		t.Fatalf("generation = %d, want 1", s.Generation())
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestTxnCommitCanceledUnwinds(t *testing.T) {
	s := openRegistrar(t, Options{})
	want := stateFingerprint(s)
	tx, err := s.Begin(true)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := tx.Stage(ctx, mustOp(t, s, txGroup[0])); err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := tx.Commit(canceled); !errors.Is(err, context.Canceled) {
		t.Fatalf("commit = %v, want context.Canceled", err)
	}
	if got := stateFingerprint(s); got != want {
		t.Fatal("canceled commit did not unwind to pre-Begin state")
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// The batch contract, on the non-atomic Txn that carries it: a rejected or
// canceled stage fails alone and leaves the group open, the applied stages
// advance the generation as they apply, and the closing call — whatever its
// context — hands the records of all of them to the sink at once.
func TestNonAtomicTxnStagesFailAlone(t *testing.T) {
	ctx := context.Background()
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	s := openRegistrar(t, Options{}) // side effects rejected
	var sunk [][]CommitRecord
	s.SetCommitSink(func(recs []CommitRecord) error {
		sunk = append(sunk, recs)
		return nil
	}, nil)

	tx, err := s.Begin(false)
	if err != nil {
		t.Fatal(err)
	}
	shared := `insert course(cno="CS777", title="Sharing") into course[cno="CS650"]//course[cno="CS320"]/prereq`
	var se *SideEffectError
	if rep, err := tx.Stage(ctx, mustOp(t, s, txGroup[0])); err != nil || !rep.Applied {
		t.Fatalf("first stage: applied=%v err=%v", rep.Applied, err)
	}
	if rep, err := tx.Stage(ctx, mustOp(t, s, shared)); !errors.As(err, &se) || rep.Applied {
		t.Fatalf("side-effecting stage: applied=%v err=%v, want a SideEffectError", rep.Applied, err)
	}
	if rep, err := tx.Stage(canceled, mustOp(t, s, txGroup[1])); !errors.Is(err, context.Canceled) || rep.Applied {
		t.Fatalf("canceled stage: applied=%v err=%v, want context.Canceled", rep.Applied, err)
	}
	tx.Fail("malformed", errors.New("a compile failure in a higher layer"))
	if tx.Err() != nil || !tx.Open() {
		t.Fatalf("Err=%v Open=%v: nothing dooms or closes a non-atomic group", tx.Err(), tx.Open())
	}
	if rep, err := tx.Stage(ctx, mustOp(t, s, txGroup[1])); err != nil || !rep.Applied {
		t.Fatalf("stage after the failures: applied=%v err=%v", rep.Applied, err)
	}
	if s.Generation() != 2 || len(sunk) != 0 {
		t.Fatalf("generation=%d, sink calls=%d before the close; want 2 and 0", s.Generation(), len(sunk))
	}
	if err := tx.Commit(canceled); err != nil {
		t.Fatalf("Commit under a canceled context = %v: the applied prefix must still go durable", err)
	}
	if len(sunk) != 1 || len(sunk[0]) != 2 || sunk[0][0].Gen != 1 || sunk[0][1].Gen != 2 {
		t.Fatalf("sink saw %v, want one call with the records of generations 1 and 2", sunk)
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
