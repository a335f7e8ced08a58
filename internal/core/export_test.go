package core

import (
	"context"
	"errors"
	"time"

	"rxview/internal/dag"
	"rxview/internal/relational"
	"rxview/internal/testkit"
	"rxview/internal/update"
	"rxview/internal/viewupdate"
	"rxview/internal/xpath"
)

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
	d := testkit.Must(dag.DecodeState(s.DAG.AppendState(nil, nil)))
	return &Snapshot{
		gen:      s.gen,
		dag:      d,
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

// DryRun is DryRunCtx without a context.
func (s *System) DryRun(op *update.Op) (*Report, error) {
	//lint:ignore xviewlint/ctxflow documented context-free convenience variant; callers holding a ctx use DryRunCtx
	return s.DryRunCtx(context.Background(), op)
}

// Total sums all phases.
func (t Timings) Total() time.Duration {
	return t.Validate + t.Eval + t.Translate + t.Apply + t.Maintain
}

// Execute parses and applies a textual update statement.
func (s *System) Execute(stmt string) (*Report, error) {
	op, err := update.ParseStatement(s.ATG, stmt)
	if err != nil {
		return nil, err
	}
	return s.Apply(op)
}

// Insert applies insert (elemType, attr) into path.
func (s *System) Insert(path string, elemType string, attr relational.Tuple) (*Report, error) {
	p, err := ParsePath(path)
	if err != nil {
		return nil, err
	}
	return s.Apply(&update.Op{Kind: update.OpInsert, Path: p, Type: elemType, Attr: attr})
}

// Delete applies delete path.
func (s *System) Delete(path string) (*Report, error) {
	p, err := ParsePath(path)
	if err != nil {
		return nil, err
	}
	return s.Apply(&update.Op{Kind: update.OpDelete, Path: p})
}

// IsRejected reports whether an error means the update was rejected by the
// relational translation (as opposed to an internal failure).
func IsRejected(err error) bool {
	var rej *viewupdate.RejectedError
	return errors.As(err, &rej)
}

// IsSideEffect reports whether an error is a side-effect consultation.
func IsSideEffect(err error) bool {
	var se *SideEffectError
	return errors.As(err, &se)
}

// selectPath parses path and returns r[[path]] over s, a System or a
// Snapshot: the query a test asks by string.
func selectPath(s interface {
	Select(*xpath.Path) (*xpath.Result, error)
}, path string) ([]dag.NodeID, error) {
	p, err := ParsePath(path)
	if err != nil {
		return nil, err
	}
	res, err := s.Select(p)
	if err != nil {
		return nil, err
	}
	return res.Selected, nil
}
