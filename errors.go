package rxview

import (
	"context"
	"errors"
	"fmt"

	"rxview/internal/core"
	"rxview/internal/update"
	"rxview/internal/viewupdate"
)

// Sentinel errors. Concrete errors returned by View methods match them under
// errors.Is; the concrete types carry detail and are reachable with
// errors.As.
var (
	// ErrSideEffect marks an update that would touch unselected
	// occurrences of a shared subtree (§2.1). The concrete type is
	// *SideEffectError.
	ErrSideEffect = errors.New("rxview: update has XML side effects")
	// ErrNotUpdatable marks an update the view cannot carry out: the
	// validation phase refuses it against the DTD and the element type's
	// attributes (§2.4), or the relational translation finds no
	// side-effect-free ΔR (§4). The concrete type is *NotUpdatableError.
	ErrNotUpdatable = errors.New("rxview: update is not translatable to the base relations")
	// ErrParse marks a malformed XPath expression or update statement.
	// The concrete type is *ParseError.
	ErrParse = errors.New("rxview: parse error")
	// ErrTxOpen marks a write submitted directly to a View while a
	// transaction begun with View.Begin is still open: the transaction owns
	// the write path until Commit or Rollback.
	ErrTxOpen = errors.New("rxview: a transaction is open on this view")
	// ErrTxDone marks an operation on a transaction that has already been
	// committed or rolled back.
	ErrTxDone = errors.New("rxview: transaction already committed or rolled back")
	// ErrCorruptLog marks a durability directory whose contents fail
	// validation beyond what recovery may repair: a checksum failure before
	// the final record, an undecodable checkpoint, every checkpoint
	// unreadable. The concrete type is *CorruptLogError. (A torn final
	// record is not corruption — recovery truncates it and continues.)
	ErrCorruptLog = errors.New("rxview: durability log is corrupt")
	// ErrCheckpointMismatch marks a durability directory, or a replication
	// stream, whose pieces are individually well-formed but are not the
	// history they claim to be: a generation gap between the checkpoint and
	// the log, a checkpoint payload or a replayed record that does not
	// produce the state its digest names, a checkpoint written under another
	// ATG. The concrete type is
	// *CheckpointMismatchError.
	ErrCheckpointMismatch = errors.New("rxview: checkpoint and log disagree")
	// ErrDegraded marks a write rejected because a durable view is in
	// degraded (read-only) mode after a disk failure: the log refused a
	// commit record, writes are refused until Recover succeeds, and
	// snapshot reads keep serving the last acknowledged state. The
	// concrete type is *DegradedError.
	ErrDegraded = errors.New("rxview: view is degraded (read-only)")
)

// CorruptLogError reports unrecoverable damage in a durability directory.
type CorruptLogError struct {
	Dir string // the WithDurability directory
	Err error  // the underlying validation failure
}

func (e *CorruptLogError) Error() string {
	return fmt.Sprintf("rxview: durability log in %s is corrupt: %v", e.Dir, e.Err)
}

// Is matches ErrCorruptLog.
func (e *CorruptLogError) Is(target error) bool { return target == ErrCorruptLog }

// Unwrap exposes the underlying validation failure.
func (e *CorruptLogError) Unwrap() error { return e.Err }

// CheckpointMismatchError reports that the checkpoint and the log in a
// durability directory (or a follower's checkpoint and stream) disagree:
// restoring hit a generation gap, a state that does not match the digest
// stamped on it — Err then names both digests and the generation — or a
// checkpoint of another ATG.
type CheckpointMismatchError struct {
	Dir string
	Err error
}

func (e *CheckpointMismatchError) Error() string {
	return fmt.Sprintf("rxview: checkpoint and log in %s disagree: %v", e.Dir, e.Err)
}

// Is matches ErrCheckpointMismatch.
func (e *CheckpointMismatchError) Is(target error) bool { return target == ErrCheckpointMismatch }

// Unwrap exposes the underlying failure.
func (e *CheckpointMismatchError) Unwrap() error { return e.Err }

// DegradedError reports a write refused (or left non-durable) by a view in
// degraded mode. Applied distinguishes the two verdicts a durability
// failure can produce:
//
//   - Applied false — the common case — is a guaranteed-unapplied
//     rejection: the write is in neither the in-memory state nor the log,
//     and retrying after recovery is always safe.
//   - Applied true is an indeterminate outcome, possible only for the
//     commit during which the log failed under prefix (non-atomic)
//     semantics — and then for every update that commit covered, not only
//     the last: the write reached the in-memory state but not the log. If
//     the view recovers, Recover's checkpoint makes it durable after all;
//     if the process dies first, it is lost. Clients must treat it like a
//     commit timeout, not a rejection.
type DegradedError struct {
	Cause   error // the disk failure that flipped the view into degraded mode
	Applied bool
}

func (e *DegradedError) Error() string {
	if e.Applied {
		return fmt.Sprintf("rxview: view degraded: write applied in memory but not durable: %v", e.Cause)
	}
	return fmt.Sprintf("rxview: view is degraded (read-only): %v", e.Cause)
}

// Is matches ErrDegraded.
func (e *DegradedError) Is(target error) bool { return target == ErrDegraded }

// Unwrap exposes the disk failure that caused the degradation.
func (e *DegradedError) Unwrap() error { return e.Cause }

// degradedApplied upgrades a degraded rejection to the indeterminate
// applied-but-not-durable verdict. A prefix group's closing call invokes it:
// the log is consulted only when something applied, and nothing is unwound.
func degradedApplied(err error) error {
	var de *DegradedError
	if errors.As(err, &de) && !de.Applied {
		return &DegradedError{Cause: de.Cause, Applied: true}
	}
	return err
}

// SideEffectError reports that an update would change occurrences of a
// shared subtree beyond the selected ones. Re-run with WithForceSideEffects
// (or decide via WithSideEffectPolicy) to apply at every occurrence under
// the revised semantics of §2.1.
type SideEffectError struct {
	Op        string // the update, rendered
	Witnesses int    // occurrences outside r[[p]] that would change
}

func (e *SideEffectError) Error() string {
	return fmt.Sprintf("rxview: %s has XML side effects (%d witness occurrence(s))", e.Op, e.Witnesses)
}

// Is matches ErrSideEffect.
func (e *SideEffectError) Is(target error) bool { return target == ErrSideEffect }

// NotUpdatableError reports that the view rejected the update: validation
// found it illegal under the DTD or its attribute tuple unfit for the
// element type, or every candidate ΔR would cause relational side effects
// (changes to the view beyond the requested ΔX), violate a key, or require
// deleting tuples other sources still need.
type NotUpdatableError struct {
	Op     string
	Reason string
}

func (e *NotUpdatableError) Error() string {
	return fmt.Sprintf("rxview: %s is not updatable: %s", e.Op, e.Reason)
}

// Is matches ErrNotUpdatable.
func (e *NotUpdatableError) Is(target error) bool { return target == ErrNotUpdatable }

// ParseError reports a malformed XPath expression or update statement. Op,
// when set, names the update the malformed input belongs to — View.Batch
// and Tx.Stage set it so a failure inside a group is attributable to its
// member, exactly like the runtime rejections.
type ParseError struct {
	Op    string
	Input string
	Err   error
}

func (e *ParseError) Error() string {
	if e.Op != "" && e.Op != e.Input {
		return fmt.Sprintf("rxview: %s: parsing %q: %v", e.Op, e.Input, e.Err)
	}
	return fmt.Sprintf("rxview: parsing %q: %v", e.Input, e.Err)
}

// Is matches ErrParse.
func (e *ParseError) Is(target error) bool { return target == ErrParse }

// Unwrap exposes the underlying parser error.
func (e *ParseError) Unwrap() error { return e.Err }

// wrapErr translates implementation-layer errors into the public taxonomy.
// Context errors are annotated with the update that did not run (they still
// match context.Canceled / DeadlineExceeded under errors.Is); anything
// unrecognized passes through unchanged.
func wrapErr(op string, err error) error {
	if err == nil {
		return nil
	}
	var se *core.SideEffectError
	if errors.As(err, &se) {
		return &SideEffectError{Op: op, Witnesses: se.Witnesses}
	}
	var rej *viewupdate.RejectedError
	if errors.As(err, &rej) {
		return &NotUpdatableError{Op: op, Reason: rej.Reason}
	}
	var inv *update.InvalidError
	if errors.As(err, &inv) {
		return &NotUpdatableError{Op: op, Reason: inv.Reason}
	}
	switch {
	case errors.Is(err, core.ErrTxOpen):
		return ErrTxOpen
	case errors.Is(err, core.ErrTxDone):
		return ErrTxDone
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("rxview: %s: %w", op, err)
	}
	return err
}

// parseErr wraps a parser failure.
func parseErr(input string, err error) error {
	if err == nil {
		return nil
	}
	return &ParseError{Input: input, Err: err}
}
