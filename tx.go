package rxview

import (
	"context"
	"errors"
	"fmt"

	"rxview/internal/core"
	"rxview/internal/update"
)

// Tx is an atomic group of view updates: stage any number of insertions and
// deletions, query the staged state, then Commit all of them or none.
//
// Staging is speculative execution over the live view — the machinery
// DryRun uses for one update, extended to survive across staged operations:
// each Stage runs the full pipeline (DTD validation, XPath evaluation with
// side-effect detection, ΔX→ΔV→ΔR translation, ΔR against the database, ΔV
// against the view, maintenance of L) so the next Stage and Tx.Query read
// the transaction's own writes.
//
// Commit is all-or-nothing. Any rejection — a parse failure, a DTD
// violation, an XML side effect, an untranslatable ΔV — dooms the group:
// the rejected update is unwound immediately, later stages are refused with
// the same error, and Commit (or Rollback) restores the view, the database
// and L exactly to their pre-Begin state. A successful Commit advances
// View.Generation by exactly 1, however many updates the transaction staged
// — one transaction, one epoch.
//
// A Tx is not safe for concurrent use, and neither is its View: between
// Begin and Commit/Rollback the transaction owns the view's write path
// (direct Apply/Batch/Execute return ErrTxOpen), while View.Query and
// DryRun remain available and observe the staged state, like Tx.Query.
// Always finish a transaction: an abandoned open Tx keeps the view's write
// path locked. For serialized transactions over a shared view, use the
// server package's Engine.Tx.
type Tx struct {
	v       *View
	t       *core.Txn
	err     error   // the doom error, in public (wrapped) form
	failRep *Report // unapplied report for an update that failed to compile
}

// Begin opens a transaction on the view. Only one transaction may be open
// at a time; a second Begin before Commit/Rollback returns ErrTxOpen.
func (v *View) Begin(ctx context.Context) (*Tx, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if v.degraded.Load() {
		return nil, &DegradedError{Cause: v.degradedCause}
	}
	t, err := v.sys.Begin(true)
	if err != nil {
		return nil, wrapErr("begin", err)
	}
	return &Tx{v: v, t: t}, nil
}

// Stage queues one update by applying it speculatively: on a nil error the
// update's full effect (including its relational translation ΔR) is visible
// to Tx.Query and later stages, pending Commit. The report and error are
// exactly what View.Apply would produce against the same state.
//
// A rejection dooms the transaction (see Tx). Cancellation does not: the
// canceled stage is unwound alone and may be retried.
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
	if err != nil {
		err = parseErr(stmt, err)
	}
	return tx.stage(ctx, stmt, op, err)
}

// stage is the shared tail of Stage and Execute: lifecycle checks, the
// compile-failure doom path, and the speculative apply with doom sync.
func (tx *Tx) stage(ctx context.Context, opName string, op *update.Op, compileErr error) (*Report, error) {
	if !tx.t.Open() {
		return &Report{Op: opName}, ErrTxDone
	}
	if tx.err != nil {
		return &Report{Op: opName}, tx.err
	}
	if compileErr != nil {
		compileErr = withOp(compileErr, opName)
		tx.t.Fail(opName, compileErr)
		tx.err = compileErr
		tx.failRep = &Report{Op: opName}
		return tx.failRep, compileErr
	}
	rep, serr := tx.t.Stage(ctx, op)
	werr := wrapErr(op.String(), serr)
	if tx.t.Err() != nil && tx.err == nil {
		tx.err = werr
	}
	return reportOf(rep), werr
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

// Reports returns the per-update reports in stage order, ending — like
// View.Batch's — with an unapplied report for an update that failed to
// compile, if one doomed the group. Call it after Commit for final timings:
// the deferred maintenance flush is folded into the last insertion's
// Maintain at commit time.
func (tx *Tx) Reports() []*Report {
	out := reportsOf(tx.t.Reports())
	if tx.failRep != nil {
		out = append(out, tx.failRep)
	}
	return out
}

// Commit makes the staged group final — or none of it: if any stage was
// rejected, or ctx is already canceled, the whole group is unwound to the
// pre-Begin state and the cause returned. On success the deferred
// maintenance flushes once and View.Generation advances by exactly 1 (not
// at all for a transaction whose stages were all no-ops).
func (tx *Tx) Commit(ctx context.Context) error {
	err := tx.t.Commit(ctx)
	switch {
	case err == nil:
		return nil
	case errors.Is(err, core.ErrTxDone):
		return ErrTxDone
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

// Rollback abandons the transaction, restoring the view, the database, L
// and M exactly to their pre-Begin state. Idempotent; rolling back a
// finished transaction is a no-op.
func (tx *Tx) Rollback() error { return tx.t.Rollback() }

// withOp stamps a ParseError with the update it belongs to, so a compile
// failure inside a group names its member like the runtime rejections do.
func withOp(err error, op string) error {
	var pe *ParseError
	if errors.As(err, &pe) {
		return &ParseError{Op: op, Input: pe.Input, Err: pe.Err}
	}
	return err
}
