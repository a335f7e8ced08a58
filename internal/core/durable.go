package core

import (
	"fmt"

	"rxview/internal/atg"
	"rxview/internal/dag"
	"rxview/internal/digest"
	"rxview/internal/relational"
	"rxview/internal/viewupdate"
	"rxview/internal/wal"
)

// CommitRecord is the commit record under the name this package has always
// used for it. It is declared once, beside its codec, as wal.Record: a Txn
// fills one in, the sink hands it to the log unconverted, and what
// ApplyCommitRecord is given — at boot or on a follower — is the same value
// decoded from the frame the log wrote.
type CommitRecord = wal.Record

// CommitSink receives the records of a committing write unit before its
// verdict is returned to the caller: an atomic transaction sends exactly one
// record, a non-atomic one sends one per applied stage. A non-nil error from
// the sink fails the commit — atomic groups roll back, non-atomic groups
// stay applied in memory and surface the error. The sink must make the
// records durable (to its configured fsync policy) before returning nil.
// It is the one hook on the commit path: whatever else may learn of a commit
// only once it is durable — a replication tail — is told by the sink, after
// its own append.
type CommitSink func(recs []CommitRecord) error

// SetCommitSink installs the durability hook. afterSync, if non-nil, runs
// after each successful commit with the highest generation the sink
// accepted, once the system is quiescent again — the checkpoint trigger.
// A record's delta is read from the DAG journal every transaction keeps.
func (s *System) SetCommitSink(sink CommitSink, afterSync func(gen uint64)) {
	s.sink = sink
	s.afterSync = afterSync
}

// StartDigest computes the state digest with one full pass and keeps it
// current from here on: every commit steps it over the record it builds and
// stamps the record with it, and every ApplyCommitRecord steps it the same way
// and holds the result to the record's stamp. A durable view starts it at its
// genesis and a replica when it opens; Recover is handed the digest its
// checkpoint carried instead. A system that never starts one builds no
// records and pays nothing.
func (s *System) StartDigest() {
	s.digest = digest.Of(s.DAG, s.DB)
}

// Digest returns the state digest at the current generation; ok is false when
// the system keeps none. While a transaction is open it covers the stages
// applied so far of a prefix group and nothing of an atomic one, like the
// generation.
func (s *System) Digest() (sum digest.Sum, ok bool) { return s.digest, !s.digest.IsZero() }

// stepDigest is the digest a commit stamps on rec, the record it is about to
// log: the digest of the state rec leaves, stepped from the digest of the
// state it was applied to. The zero digest — none — when the system keeps
// none.
func (s *System) stepDigest(rec CommitRecord) digest.Sum {
	if s.digest.IsZero() {
		return digest.Sum{}
	}
	return s.digest.Step(s.DAG, rec.Delta, rec.DR)
}

// ApplyCommitRecord replays one committed record against the live system —
// the one replay loop, shared by the follower's apply path and by Recover:
// ΔR goes through applyDR, then the DAG delta op by op (node deaths,
// cascades included, arrive as their own ops), then the source index from
// the whole delta (noteDelta). The record must continue the current
// generation exactly; a gap means the caller lost part of the stream
// (or the log and checkpoint disagree) and must re-sync from a checkpoint
// rather than replay into a wrong state. So does a replay that ends in a state other than
// the one the record's digest names: the error wraps a *digest.MismatchError
// with both, the generation is not advanced, and the caller's state is no
// longer any generation's — restore it from a checkpoint or discard it.
func (s *System) ApplyCommitRecord(rec CommitRecord) error {
	if s.txn != nil {
		return ErrTxOpen
	}
	if rec.Gen != s.gen+1 {
		return fmt.Errorf("core: apply record: record for generation %d follows generation %d", rec.Gen, s.gen)
	}
	if err := s.applyDR(rec.DR); err != nil {
		return fmt.Errorf("core: apply record: generation %d: %w", rec.Gen, err)
	}
	for _, op := range rec.Delta {
		if err := s.DAG.ApplyDelta(op); err != nil {
			return fmt.Errorf("core: apply record: generation %d: %w", rec.Gen, err)
		}
	}
	s.noteDelta(rec.Delta, +1)
	if !s.digest.IsZero() {
		next := s.digest.Step(s.DAG, rec.Delta, rec.DR)
		if err := digest.Compare(rec.Digest, next); err != nil {
			return fmt.Errorf("core: apply record: generation %d: %w", rec.Gen, err)
		}
		s.digest = next
	}
	s.gen = rec.Gen
	return nil
}

// Recover rebuilds a System from durable state: a checkpoint (the database
// holding the checkpointed instance and the decoded DAG, at generation gen,
// with state digest sum — the caller has held the decoded state to it) plus
// the log suffix recs, replayed in order through ApplyCommitRecord.
// Generations must be contiguous from gen+1.
func Recover(c *atg.Compiled, db *relational.Database, d *dag.DAG, gen uint64, sum digest.Sum, recs []CommitRecord, opts Options) (*System, error) {
	s := &System{
		ATG:        c,
		DB:         db,
		DAG:        d,
		Translator: viewupdate.NewTranslator(c, db, d),
		opts:       opts,
		text:       c.Text(d),
		textEq:     c.TextEquals(d),
		seeds:      c.TextSeeds(d),
		gen:        gen,
		digest:     sum,
	}
	for _, rec := range recs {
		if err := s.ApplyCommitRecord(rec); err != nil {
			return nil, fmt.Errorf("core: recover: %w", err)
		}
	}
	s.warmIndexes()
	return s, nil
}
