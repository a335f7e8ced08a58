package core

import (
	"context"

	"rxview/internal/update"
)

// DryRunCtx answers the updatability question for ΔX (§4.1) without
// changing anything: it stages the update through the pipeline Apply runs,
// the storage fault point included, and unwinds it. So the report (ΔR and
// its fresh values too) and the error are what Apply would give next; only
// the stage's metrics are not taken. Inside an open transaction it stages
// on top of the group's state. For deletions the question is PTIME
// (Theorem 1); for insertions it runs the heuristic SAT analysis (Theorem 2
// makes the exact question NP-complete).
func (s *System) DryRunCtx(ctx context.Context, op *update.Op) (*Report, error) {
	if s.txn == nil {
		s.DAG.Begin()
		defer s.DAG.Rollback() // the journal is empty again by then
	}
	sp := s.savepoint()
	rep, _, err := s.apply(ctx, op)
	if uerr := s.unwind(sp, rep.DR); uerr != nil {
		return rep, uerr
	}
	return rep, err
}
