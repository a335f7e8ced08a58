package core

import (
	"fmt"

	"rxview/internal/atg"
	"rxview/internal/dag"
	"rxview/internal/reach"
	"rxview/internal/relational"
	"rxview/internal/storage"
	"rxview/internal/viewupdate"
)

// CommitRecord is everything a committed write unit changed, in replayable
// form: the generation it produced, the chronological DAG delta (ΔV at the
// instance level, deletions included — dag.DeltaOp, not the grouped change
// summary) and the executed relational group update ΔR. Replaying the record
// against the state at generation Gen-1 reproduces the state at Gen exactly,
// node identities included.
type CommitRecord struct {
	Gen   uint64
	Delta []dag.DeltaOp
	DR    []relational.Mutation
}

// CommitSink receives the records of a committing write unit before its
// verdict is returned to the caller: an atomic transaction sends exactly one
// record, a non-atomic one sends one per applied stage. A non-nil error from
// the sink fails the commit — atomic groups roll back, non-atomic groups
// stay applied in memory and surface the error. The sink must make the
// records durable (to its configured fsync policy) before returning nil.
type CommitSink func(recs []CommitRecord) error

// SetCommitSink installs the durability hook. afterSync, if non-nil, runs
// after each successful commit with the highest generation the sink
// accepted, once the system is quiescent again — the checkpoint trigger.
// Installing a sink also makes non-atomic transactions open a DAG journal to
// capture per-stage deltas; with a nil sink (the default) the write path is
// exactly the non-durable one.
func (s *System) SetCommitSink(sink CommitSink, afterSync func(gen uint64)) {
	s.sink = sink
	s.afterSync = afterSync
}

// CommitObserver receives the records of each durably committed write unit.
// Observers run synchronously on the write path, after the sink accepted the
// records — a record a crash could still lose is never observed, which is
// what lets a replication tail treat every observed generation as part of
// the primary's durable history. Observers must be fast and must not call
// back into the system.
type CommitObserver func(recs []CommitRecord)

// AddCommitObserver registers a post-durability tap. Observers require a
// commit sink: without one there is no durable history to stream. Not safe
// for concurrent use with the write path — install observers at setup time,
// like the sink itself.
func (s *System) AddCommitObserver(fn CommitObserver) {
	s.observers = append(s.observers, fn)
}

// commitRecords feeds a committing unit's records to the durability sink
// and, only on acceptance, to the observers.
func (s *System) commitRecords(recs []CommitRecord) error {
	if err := s.sink(recs); err != nil {
		return err
	}
	for _, fn := range s.observers {
		fn(recs)
	}
	return nil
}

// ApplyCommitRecord replays one committed record against the live system —
// the one replay loop, shared by the follower's apply path and by Recover:
// ΔR goes through the backend, then the DAG delta op by op with L and the
// translator's source index repaired per op (append for node births,
// swap-repair for edge insertions, tombstoning for node deaths — cascades
// and collected nodes arrive as their own ops; removing an edge never
// invalidates a topological order). The record must continue the current
// generation exactly; a gap means the caller lost part of the stream (or the
// log and checkpoint disagree) and must re-sync from a checkpoint rather than
// replay into a wrong state.
func (s *System) ApplyCommitRecord(rec CommitRecord) error {
	if s.txn != nil {
		return ErrTxOpen
	}
	if rec.Gen != s.gen+1 {
		return fmt.Errorf("core: apply record: record for generation %d follows generation %d", rec.Gen, s.gen)
	}
	if err := s.store.Apply(rec.DR); err != nil {
		return fmt.Errorf("core: apply record: generation %d: %w", rec.Gen, err)
	}
	for _, op := range rec.Delta {
		if err := s.DAG.ApplyDelta(op); err != nil {
			return fmt.Errorf("core: apply record: generation %d: %w", rec.Gen, err)
		}
		switch op.Kind {
		case dag.DeltaNodeAdd:
			s.Topo.Append(op.Node)
		case dag.DeltaNodeDel:
			s.Topo.Delete(op.Node)
		case dag.DeltaEdgeAdd:
			s.Topo.FixEdge(s.DAG, op.Edge.Parent, op.Edge.Child)
			s.Translator.NoteEdgeInserted(op.Edge)
		case dag.DeltaEdgeDel:
			s.Translator.NoteEdgeDeleted(op.Edge)
		}
	}
	s.gen = rec.Gen
	return nil
}

// Recover rebuilds a System from durable state: a checkpoint (the backend
// holding the checkpointed instance, the decoded DAG and its serialized
// topological order, at generation gen) plus the log suffix recs, replayed
// in order through ApplyCommitRecord. Generations must be contiguous from
// gen+1.
func Recover(c *atg.Compiled, store storage.Backend, d *dag.DAG, order []dag.NodeID, gen uint64, recs []CommitRecord, opts Options) (*System, error) {
	db := store.DB()
	s := &System{
		ATG:        c,
		DB:         db,
		DAG:        d,
		Topo:       reach.RestoreTopo(order),
		Translator: viewupdate.NewTranslator(c, db, d),
		store:      store,
		opts:       opts,
		text:       c.Text(d),
		textEq:     c.TextEquals(d),
		gen:        gen,
	}
	for _, rec := range recs {
		if err := s.ApplyCommitRecord(rec); err != nil {
			return nil, fmt.Errorf("core: recover: %w", err)
		}
	}
	s.warmIndexes()
	return s, nil
}
