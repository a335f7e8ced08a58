package rxview

import (
	"context"
	"errors"
	"fmt"

	"rxview/internal/core"
	"rxview/internal/update"
)

// Tx is a group of view updates staged one at a time over the live view:
// stage any number of insertions and deletions, query the staged state, then
// close the group with Commit. It comes in two modes, chosen by the
// constructor.
//
// Staging is speculative execution over the live view: each Stage runs the
// full pipeline (DTD validation, XPath evaluation with side-effect
// detection, ΔX→ΔV→ΔR translation, ΔR against the database, ΔV against the
// view, garbage collection) so the next Stage and Tx.Query read the
// transaction's own writes. DryRun is one such stage, unwound as soon as it
// has run.
//
// An atomic group (View.Begin) is all-or-nothing. Any rejection — a parse
// failure, a DTD violation, an XML side effect, an untranslatable ΔV — dooms
// the group: the rejected update is unwound immediately, later stages are
// refused with the same error, and Commit (or Rollback) restores the view
// and the database exactly to their pre-Begin state. A successful Commit
// advances View.Generation by exactly 1, however many updates the
// transaction staged — one transaction, one epoch.
//
// A prefix group (View.BeginBatch) is a sequence of independent updates that
// share one commit. Every Stage stands alone — under its own context, with
// the verdict View.Apply would give against the same state: a rejected,
// malformed or canceled update is unwound and fails by itself, and the group
// stays open for the next one. Applied stages stay applied (the generation
// advances once per applied update, as it stages); Commit sends the records
// of all of them to the log in one append and one sync and can fail only
// there, and Rollback does the same — there is nothing sound to unwind.
// View.Apply, Execute and Batch are one-shot prefix groups.
//
// A Tx is not safe for concurrent use, and neither is its View: while a
// group is open it owns the view's write path (direct Apply/Batch/Execute
// and a second Begin return ErrTxOpen), while View.Query and DryRun remain
// available and observe the staged state, like Tx.Query. Always finish a
// group: an abandoned open Tx keeps the view's write path locked. For
// serialized transactions over a shared view, use the server package's
// Engine.Tx.
type Tx struct {
	v       *View
	t       *core.Txn
	reports []*Report // one per staged update, in stage order
	err     error     // atomic mode: the doom error, in public (wrapped) form
}

// Begin opens an atomic group on the view. Only one group may be open at a
// time; a second Begin or BeginBatch before Commit/Rollback returns
// ErrTxOpen.
func (v *View) Begin(ctx context.Context) (*Tx, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return v.begin(true)
}

// BeginBatch opens a prefix group on the view (see Tx): independent updates,
// each staged under its own context with its own verdict, made durable
// together by one Commit. It takes no context because opening the group does
// no work a caller could cancel. The same one-group-at-a-time rule as Begin
// applies.
func (v *View) BeginBatch() (*Tx, error) { return v.begin(false) }

func (v *View) begin(atomic bool) (*Tx, error) {
	if v.degraded.Load() {
		return nil, &DegradedError{Cause: v.degradedCause}
	}
	t, err := v.sys.Begin(atomic)
	if err != nil {
		return nil, wrapErr("begin", err)
	}
	return &Tx{v: v, t: t, reports: []*Report{}}, nil // never nil: an empty group reports [], not null
}

// Stage queues one update by applying it speculatively: on a nil error the
// update's full effect (including its relational translation ΔR) is visible
// to Tx.Query and later stages, pending Commit. The report and error are
// exactly what View.Apply would produce against the same state.
//
// In an atomic group a rejection dooms the transaction (see Tx);
// cancellation does not: the canceled stage is unwound alone and may be
// retried. In a prefix group nothing dooms anything.
func (tx *Tx) Stage(ctx context.Context, u Update) (*Report, error) {
	op, err := u.compile()
	return tx.stage(ctx, u.String(), op, err)
}

// Execute parses and stages one textual update statement:
//
//	insert type(field=value, ...) into xpath
//	delete xpath
func (tx *Tx) Execute(ctx context.Context, stmt string) (*Report, error) {
	op, err := update.ParseStatement(tx.v.sys.ATG, stmt)
	return tx.stage(ctx, stmt, op, parseErr(stmt, err))
}

// stage is the one staging tail — Stage, Execute and, through applyOne,
// View.Apply and View.Execute all end here: lifecycle checks, the
// compile-failure path, the speculative apply, the translation into the
// public error taxonomy, and the doom sync of an atomic group.
func (tx *Tx) stage(ctx context.Context, opName string, op *update.Op, compileErr error) (*Report, error) {
	if !tx.t.Open() {
		return &Report{Op: opName}, ErrTxDone
	}
	if tx.err != nil {
		return &Report{Op: opName}, tx.err
	}
	var rep *Report
	var err error
	if compileErr != nil {
		rep, err = &Report{Op: opName}, withOp(compileErr, opName)
		tx.t.Fail(opName, err) // dooms an atomic group; a prefix group carries on
	} else {
		crep, serr := tx.t.Stage(ctx, op)
		rep = reportOf(crep)
		if serr != nil { // op.String() renders the whole update: not on the success path
			err = wrapErr(op.String(), serr)
		}
	}
	tx.reports = append(tx.reports, rep)
	if tx.t.Err() != nil {
		tx.err = err
	}
	return rep, err
}

// Query evaluates an XPath expression over the transaction's view of the
// data: the live view plus every staged-but-uncommitted write — read your
// writes, before anyone else can.
func (tx *Tx) Query(ctx context.Context, path string) ([]Node, error) {
	return tx.v.Query(ctx, path)
}

// Validate answers the updatability question for the staged group: nil
// means every staged update applied speculatively, so the combined effect
// is exactly the staged state and Commit will succeed; otherwise it returns
// the rejection that doomed the group (the same error Commit will return).
func (tx *Tx) Validate() error { return tx.err }

// Applied returns the number of staged updates that applied (no-ops and
// skips stage successfully without applying).
func (tx *Tx) Applied() int { return tx.t.Applied() }

// Reports returns the per-update reports in stage order, an update that
// failed to compile included (its report is unapplied, like a rejected
// one's).
func (tx *Tx) Reports() []*Report { return tx.reports }

// Commit closes the group.
//
// Atomic mode makes the staged group final — or none of it: if any stage was
// rejected, ctx is already canceled or the log refuses the group's record,
// the whole group is unwound to the pre-Begin state and the cause returned.
// On success View.Generation advances by exactly 1 (not at all for a
// transaction whose stages were all no-ops).
//
// Prefix mode makes the applied stages durable together. ctx is not
// consulted — they are applied already and must reach the log whatever
// became of the caller — so the only possible failure is the log refusing
// the append. That failure is the indeterminate verdict for every applied
// stage of the group, not just the last: a DegradedError with Applied set,
// in memory and in no log.
func (tx *Tx) Commit(ctx context.Context) error {
	err := tx.t.Commit(ctx)
	switch {
	case err == nil:
		return nil
	case errors.Is(err, core.ErrTxDone):
		return ErrTxDone
	case !tx.t.Atomic():
		return degradedApplied(err)
	case tx.err != nil && err == tx.t.Err():
		return tx.err // the group rejection: state restored to pre-Begin
	case tx.err != nil:
		// The unwind itself failed — the undo log and the live state
		// disagree. Never mask this behind the original rejection: the
		// pre-Begin state was NOT restored.
		return fmt.Errorf("rxview: %w (while unwinding rejected group: %w)", err, tx.err)
	case tx.t.ErrOp() != "":
		return wrapErr(tx.t.ErrOp(), err)
	default:
		return err // cancellation at commit time: unwound, nothing committed
	}
}

// Rollback abandons the group. An atomic group is unwound: the view and the
// database are restored exactly to their pre-Begin state. A prefix
// group has nothing sound to unwind, so Rollback closes it exactly as Commit
// does, log failure included. Idempotent; rolling back a finished
// transaction is a no-op.
func (tx *Tx) Rollback() error { return degradedApplied(tx.t.Rollback()) }

// withOp stamps a ParseError with the update it belongs to, so a compile
// failure inside a group names its member like the runtime rejections do.
func withOp(err error, op string) error {
	var pe *ParseError
	if errors.As(err, &pe) {
		return &ParseError{Op: op, Input: pe.Input, Err: pe.Err}
	}
	return err
}
