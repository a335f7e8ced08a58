package core

import (
	"context"

	"rxview/internal/update"
)

// DryRunCtx answers the updatability question for ΔX without changing
// anything: it runs DTD validation, XPath evaluation, side-effect detection
// and the full relational translation, then rolls everything back. The
// report shows what Apply would have done (including ΔR); the returned error
// is exactly what Apply would have returned.
//
// This is the paper's updatability problem (§4.1) as an API: for deletions
// it decides in PTIME (Theorem 1), for insertions it runs the heuristic
// SAT analysis (Theorem 2 makes the exact question NP-complete).
//
// It checks for cancellation between the phases, mirroring ApplyCtx, and
// shares the validation/evaluation/gating prologue with Apply
// (System.stage), so both reject, skip and no-op in exactly the same cases.
func (s *System) DryRunCtx(ctx context.Context, op *update.Op) (*Report, error) {
	rep := &Report{Op: op.String()}
	res, proceed, err := s.stage(ctx, op, rep)
	if !proceed {
		return rep, err
	}

	switch op.Kind {
	case update.OpInsert:
		// Unwound on return to a mark in the open group's journal, so "what
		// would Apply do next" can be asked about staged state too.
		if s.txn == nil {
			s.DAG.Begin()
			defer s.DAG.Rollback()
		}
		defer s.DAG.RollbackTo(s.DAG.Mark())
		dv, err := update.Xinsert(s.ATG, s.DAG, s.DB, res.Selected, op.Type, op.Attr)
		if err != nil {
			return rep, err
		}
		if len(dv.Inserts) == 0 {
			return rep, nil
		}
		dr, _, err := s.Translator.TranslateInsert(dv.Inserts, dv.NewNodes)
		if err != nil {
			return rep, err
		}
		if err := ctx.Err(); err != nil {
			return rep, err // mirrors ApplyCtx's post-translation check
		}
		rep.DR = dr
		rep.DVInserts = len(dv.Inserts)
		rep.Applied = true // would apply
		return rep, nil
	default:
		dr, err := s.Translator.TranslateDelete(res.Edges)
		if err != nil {
			return rep, err
		}
		if err := ctx.Err(); err != nil {
			return rep, err // mirrors ApplyCtx's post-translation check
		}
		rep.DR = dr
		rep.DVDeletes = len(res.Edges)
		rep.Applied = true
		return rep, nil
	}
}
