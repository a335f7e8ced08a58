package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"rxview/internal/obs"
	"rxview/internal/relational"
	"rxview/internal/update"
)

// Transaction errors.
var (
	// ErrTxOpen is returned by write entry points while a transaction begun
	// with System.Begin is still open on the view: the transaction owns the
	// write path until Commit or Rollback closes it.
	ErrTxOpen = errors.New("core: a transaction is open on this view")
	// ErrTxDone is returned by operations on a transaction that has already
	// been committed or rolled back.
	ErrTxDone = errors.New("core: transaction already committed or rolled back")
)

// Txn is a group of XML updates processed as one unit. Updates are staged
// one at a time with Stage; each staged update runs the full pipeline of
// §2.4 speculatively against the live system — DTD validation, XPath
// evaluation with side-effect detection, ΔX→ΔV→ΔR translation, ΔR against
// the database, ΔV against the view and a deletion's garbage collection —
// so queries between stages read the transaction's own writes.
//
// Every transaction opens the DAG journal at Begin, and that journal is its
// one undo log: a stage runs from a mark in it, the delta since the mark is
// the stage's ΔV (what a prefix stage's record carries), and a stage that
// does not apply is rewound to its mark. The database needs no log of its
// own — an applied stage's ΔR is in its report — and the translator's
// source index follows the journal's delta (System.noteDelta).
//
// In atomic mode (System.Begin(true)) the group is all-or-nothing: a staged
// rejection dooms the whole transaction, and Commit or Rollback unwinds the
// DAG, the database, the source index and the fresh-value counter exactly
// to their pre-Begin state (System.unwind). A successful Commit advances
// the generation by exactly 1, however many updates the transaction
// applied.
//
// In non-atomic (prefix) mode every stage stands alone: a rejected or
// canceled stage is unwound and fails its own update only, the applied ones
// stay applied whatever happens later, the generation advances once per
// applied update as each stage applies, and Commit hands the records of the
// whole applied prefix to the commit sink in one call — one log append, one
// sync, however many updates the group staged.
type Txn struct {
	s      *System
	atomic bool

	reports []*Report
	applied int

	// Non-atomic mode with a commit sink: the records of applied stages,
	// buffered until the sink writes them at close.
	recs []CommitRecord

	start savepoint // Begin's: what an atomic rollback unwinds to

	err    error  // atomic mode: the rejection that doomed the group
	errOp  string // the staged update the rejection belongs to
	closed bool
}

// Begin opens a transaction on the system. atomic selects all-or-nothing
// semantics (group rollback, one generation per commit); non-atomic
// transactions are the batch primitive — prefix semantics, one generation
// per applied update. Only one transaction may be open at a time; while one
// is open, a second Begin — and with it Apply and Execute, which are one-shot
// non-atomic transactions — returns ErrTxOpen.
func (s *System) Begin(atomic bool) (*Txn, error) {
	if s.txn != nil {
		return nil, ErrTxOpen
	}
	t := &Txn{s: s, atomic: atomic}
	s.DAG.Begin()
	t.start = s.savepoint()
	s.txn = t
	return t, nil
}

// InTxn reports whether a transaction is open on the system.
func (s *System) InTxn() bool { return s.txn != nil }

// Atomic reports the transaction's mode.
func (t *Txn) Atomic() bool { return t.atomic }

// Open reports whether the transaction still accepts stages.
func (t *Txn) Open() bool { return !t.closed }

// Applied returns the number of staged updates that applied so far.
func (t *Txn) Applied() int { return t.applied }

// Err returns the rejection that doomed an atomic transaction, or nil — the
// updatability answer for the staged group: nil means every staged update
// applied speculatively, so Commit will succeed and the combined effect is
// exactly the staged state. ErrOp names the rejected update.
func (t *Txn) Err() error { return t.err }

// ErrOp returns the rendered update the doom error belongs to.
func (t *Txn) ErrOp() string { return t.errOp }

// Stage runs one update through the full pipeline, speculatively: on return
// with a nil error the update is applied to the live state (visible to
// queries and later stages) but not yet durable — Commit makes the group
// final, Rollback (atomic mode) undoes it. The report and error are exactly
// what Apply would produce for the same update against the same state.
//
// In atomic mode a rejection (side effect, DTD violation, parse failure,
// untranslatable ΔV) dooms the transaction: the failed update itself is
// already unwound, later stages are refused with the same error, and Commit
// will unwind the whole group. Cancellation does not doom the group — the
// canceled stage is unwound and may be retried.
func (t *Txn) Stage(ctx context.Context, op *update.Op) (*Report, error) {
	if t.closed {
		return &Report{Op: op.String()}, ErrTxDone
	}
	if t.err != nil {
		return &Report{Op: op.String()}, t.err
	}
	var stageT0 time.Time
	if obs.Enabled() {
		stageT0 = time.Now()
	}
	rep, delta, err := t.s.apply(ctx, op)
	t.reports = append(t.reports, rep)
	if rep.Applied {
		t.applied++
		if obs.Enabled() {
			observeTimings(rep.Timings)
		}
		if !t.atomic {
			t.s.gen++
			if t.s.sink != nil || !t.s.digest.IsZero() {
				// One record, one digest step per stage. The digest follows
				// memory: the stage is applied whatever the sink says at
				// close, so the step is taken here and stands.
				rec := CommitRecord{Gen: t.s.gen, Delta: delta, DR: rep.DR}
				rec.Digest = t.s.stepDigest(rec)
				t.s.digest = rec.Digest
				if t.s.sink != nil {
					t.recs = append(t.recs, rec)
				}
			}
		}
	}
	if err != nil && t.atomic && !isCtxErr(err) {
		t.err, t.errOp = err, op.String()
	}
	m := metrics()
	if rep.Applied {
		m.stagesOK.Inc()
	} else if err != nil {
		m.stagesRej.Inc()
	}
	if obs.Enabled() {
		m.stageDur.Observe(time.Since(stageT0))
	}
	return rep, err
}

// Fail dooms an atomic transaction with a rejection detected outside Stage
// — a parse failure in a higher layer, say. The group is all-or-nothing: if
// one member cannot even be compiled, the combined effect is undefined and
// Commit must refuse it. No-op in non-atomic mode, on a doomed transaction
// and on a closed one.
func (t *Txn) Fail(op string, err error) {
	if t.atomic && !t.closed && t.err == nil && err != nil {
		t.err, t.errOp = err, op
	}
}

// Commit finishes the transaction. Atomic mode: if any stage was rejected
// (or ctx is already canceled), the whole group is unwound to the pre-Begin
// state and the rejection is returned; otherwise the group's record goes to
// the commit sink, the DAG journal commits, and the generation advances by 1
// if anything applied. Non-atomic mode: the records of the applied prefix go
// to the sink; only that can fail.
func (t *Txn) Commit(ctx context.Context) error {
	if t.closed {
		return ErrTxDone
	}
	var commitT0 time.Time
	if obs.Enabled() {
		commitT0 = time.Now()
	}
	s := t.s
	var through uint64 // highest generation the sink accepted; 0 = none
	var durErr error
	if t.atomic {
		err := t.err
		if err == nil {
			err = ctx.Err() // all-or-nothing under cancellation too: nothing committed
		}
		if err != nil {
			if rerr := t.rollback(); rerr != nil {
				return rerr
			}
			return err
		}
		var rec CommitRecord
		if t.applied > 0 && (s.sink != nil || !s.digest.IsZero()) {
			// Durable before irreversible: the group's record must reach
			// the sink while the journal is still open — rollback is clean
			// until DAG.Commit, and DeltaSince(0) is the whole group's
			// chronological op stream. The digest it carries is adopted only
			// once the sink has accepted it: a rollback leaves the old one.
			rec = CommitRecord{Gen: s.gen + 1, Delta: s.DAG.DeltaSince(0), DR: t.appliedDR()}
			rec.Digest = s.stepDigest(rec)
			if s.sink != nil {
				if err := s.sink([]CommitRecord{rec}); err != nil {
					if rerr := t.rollback(); rerr != nil {
						return rerr
					}
					return err
				}
				through = rec.Gen
			}
		}
		if t.applied > 0 {
			s.gen++
			s.digest = rec.Digest
		}
	} else {
		through, durErr = t.sinkPrefix()
	}
	t.finish(through)
	m := metrics()
	m.commits.Inc()
	if obs.Enabled() {
		m.commitDur.Observe(time.Since(commitT0))
	}
	return durErr
}

// Rollback abandons the transaction: atomic mode restores the pre-Begin
// state exactly; non-atomic mode keeps the applied prefix (there is nothing
// sound to unwind — that is the documented batch contract). Idempotent:
// rolling back a finished transaction is a no-op.
func (t *Txn) Rollback() error {
	if t.closed {
		return nil
	}
	if !t.atomic {
		// The applied prefix stays applied, so it must also go durable: a
		// replayed log has to reproduce exactly the state the process was
		// left in.
		through, durErr := t.sinkPrefix()
		t.finish(through)
		return durErr
	}
	return t.rollback()
}

// sinkPrefix makes a non-atomic transaction's applied prefix durable: the
// records were buffered as stages applied and go to the sink in one call. A
// sink failure leaves the in-memory state applied (the batch contract) and
// surfaces as the closing call's error.
func (t *Txn) sinkPrefix() (through uint64, err error) {
	if t.s.sink == nil || len(t.recs) == 0 {
		return 0, nil
	}
	if err := t.s.sink(t.recs); err != nil {
		return 0, err
	}
	return t.recs[len(t.recs)-1].Gen, nil
}

// appliedDR is the group's ΔR so far: the applied stages' ΔR in stage
// order.
func (t *Txn) appliedDR() []relational.Mutation {
	var dr []relational.Mutation
	for _, rep := range t.reports {
		if rep.Applied {
			dr = append(dr, rep.DR...)
		}
	}
	return dr
}

// rollback unwinds the group to Begin and closes the emptied journal. An
// inverse-mutation failure means the reports and the database disagree; it
// is returned as an internal error, never silently swallowed.
func (t *Txn) rollback() error {
	var t0 time.Time
	if obs.Enabled() {
		t0 = time.Now()
	}
	s := t.s
	err := s.unwind(t.start, t.appliedDR())
	s.DAG.Rollback()
	t.close()
	m := metrics()
	m.rollbacks.Inc()
	if obs.Enabled() {
		m.rollbackDur.Observe(time.Since(t0))
	}
	return err
}

func (t *Txn) close() {
	t.closed = true
	t.s.txn = nil
}

// finish keeps the group's mutations — it commits the DAG journal — closes
// the transaction and fires the post-sync hook for the generations the sink
// accepted. The hook runs after close so that a checkpoint it triggers sees
// a quiescent system — no open transaction, no attached DAG journal.
func (t *Txn) finish(through uint64) {
	t.s.DAG.Commit()
	t.close()
	if through > 0 && t.s.afterSync != nil {
		t.s.afterSync(through)
	}
}

// savepoint is a mark in the open DAG journal and the translator's
// fresh-value counter there.
type savepoint struct {
	mark  int
	fresh int64
}

func (s *System) savepoint() savepoint {
	return savepoint{mark: s.DAG.Mark(), fresh: s.Translator.Fresh()}
}

// unwind restores the state at sp, where dr is the ΔR the stages applied
// since sp executed: the source index (undoing the journal's delta while
// the journal still holds it), the DAG and the fresh-value counter, and the
// database. An atomic rollback and a dry run both end here; the generation
// and the digest move only at commit, so neither has anything to restore.
func (s *System) unwind(sp savepoint, dr []relational.Mutation) error {
	s.noteDelta(s.DAG.DeltaSince(sp.mark), -1)
	s.rewind(sp)
	return undoMutations(s.DB, dr)
}

// rewind restores the DAG and the fresh-value counter at sp: all that a
// stage which did not apply leaves behind.
func (s *System) rewind(sp savepoint) {
	s.DAG.RollbackTo(sp.mark)
	s.Translator.SetFresh(sp.fresh)
}

// undoMutations replays the inverse of an executed ΔR log on db, newest
// first.
func undoMutations(db *relational.Database, dr []relational.Mutation) error {
	for i := len(dr) - 1; i >= 0; i-- {
		m := dr[i]
		if m.Insert {
			if !db.Delete(m.Table, m.Tuple) {
				return fmt.Errorf("core: rollback: undo insert %s %s: no such tuple", m.Table, m.Tuple)
			}
		} else if err := db.Insert(m.Table, m.Tuple); err != nil {
			return fmt.Errorf("core: rollback: undo delete %s %s: %w", m.Table, m.Tuple, err)
		}
	}
	return nil
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
