package core

import (
	"context"

	"rxview/internal/update"
)

// ApplyBatch runs a sequence of XML updates as a one-shot non-atomic
// transaction: each ΔX goes through its own validation, XPath evaluation,
// ΔX→ΔV→ΔR translation, execution and maintenance (the semantics are exactly
// those of the same sequence of Apply calls), and the records of the whole
// applied prefix reach the commit sink in one call — one log append, one
// sync — instead of one per update.
//
// The batch is not atomic: it stops at the first failing update, with every
// earlier update already applied. The returned reports cover the processed
// prefix (including, as its last element, the report of the failed update —
// for a cancellation that is an unapplied report naming the op that did not
// run, so the error is always attributable to the right update). For an
// all-or-nothing group, use Begin(true).
func (s *System) ApplyBatch(ctx context.Context, ops []*update.Op) ([]*Report, error) {
	t, err := s.Begin(false)
	if err != nil {
		return nil, err
	}
	for _, op := range ops {
		if err := ctx.Err(); err != nil {
			// The cancelled update never ran; report it unapplied so the
			// caller attributes the error to it, not to the last update
			// that succeeded. The stage error outranks any durability
			// failure from the commit — the applied prefix still went to
			// the sink.
			t.reports = append(t.reports, &Report{Op: op.String()})
			_ = t.Commit(ctx)
			return t.Reports(), err
		}
		if _, err := t.Stage(ctx, op); err != nil {
			_ = t.Commit(ctx)
			return t.Reports(), err
		}
	}
	// A non-atomic commit of staged-and-applied updates can only fail in the
	// durability sink; that failure must reach the caller.
	if err := t.Commit(ctx); err != nil {
		return t.Reports(), err
	}
	return t.Reports(), nil
}
