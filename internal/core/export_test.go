package core

import "rxview/internal/update"

// Methods on System that only tests call.

// CloneSnapshot freezes the current view state by deep copy (O(n) in the
// view size). It answers exactly like Snapshot at the same generation;
// keep using it where full physical independence is the point — as the
// aliasing-test oracle and the baseline the snapshot benchmarks compare
// the O(Δ) seal against.
func (s *System) CloneSnapshot() *Snapshot {
	if s.txn != nil {
		panic("core: CloneSnapshot inside an open transaction (commit or roll back first)")
	}
	d := s.DAG.Clone()
	return &Snapshot{
		gen:      s.gen,
		dag:      d,
		topo:     s.Topo.Clone(),
		text:     s.ATG.Text(d),
		textEq:   s.ATG.TextEquals(d),
		baseRows: s.DB.TotalRows(),
	}
}

// Updatable reports whether ΔX can be carried out without relational side
// effects (and, unless ForceSideEffects is set, without XML side effects).
func (s *System) Updatable(op *update.Op) bool {
	_, err := s.DryRun(op)
	return err == nil
}
