package rxview

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"rxview/internal/core"
	"rxview/internal/repl"
	"rxview/internal/wal"
)

// Replication glue. The primary side exposes its durable change log — the
// frames the WAL wrote, byte for byte — as a ReplSource: a checkpoint fetch
// plus a generation-contiguous record stream. The follower side is a
// Replica: a read-only view that restores from a checkpoint payload and
// replays streamed records one epoch per record through the same loop boot
// recovery uses (core's ApplyCommitRecord). The HTTP transport between the
// two lives in the server package; this file only defines the state machines
// and the wire framing.

// ErrReplicaStale marks a follower that cannot continue from its current
// generation because the primary's log no longer holds the range — the
// segments were pruned by checkpointing. The follower re-syncs by fetching
// the newest checkpoint and restoring from it.
var ErrReplicaStale = errors.New("rxview: follower generation pruned from the primary's log")

// ReplSource streams a durable view's committed history to followers. Safe
// for concurrent use by any number of streams while the view keeps
// committing; obtain it once at setup with View.ReplSource.
type ReplSource struct {
	v   *View
	src *repl.Source
}

// ReplSource turns a durable view into a change-log source: from here on the
// view's commit sink publishes the frames of every append the log accepts to
// an in-memory tail, and the WAL segments serve as the cold catch-up range —
// the same bytes either way. Call it before the view starts serving writes:
// like SetCommitSink it is a setup-time operation, and the writer reads the
// tail it installs. Views opened without WithDurability cannot stream: their
// history is not retained anywhere.
func (v *View) ReplSource() (*ReplSource, error) {
	if v.log == nil {
		return nil, fmt.Errorf("rxview: replication requires a durable view (WithDurability)")
	}
	if v.tail == nil {
		v.tail = repl.NewTail(v.sys.Generation(), 0)
	}
	return &ReplSource{v: v, src: repl.NewSource(v.log.Dir(), v.tail)}, nil
}

// Generation returns the newest streamable generation: the durable
// watermark, advanced only after the log accepted a commit. It can trail
// View.Generation transiently (a prefix-semantics commit that failed to
// persist) but never leads it.
func (rs *ReplSource) Generation() uint64 { return rs.src.Durable() }

// Oldest returns the oldest generation a stream can resume from; followers
// behind it must refetch the checkpoint.
func (rs *ReplSource) Oldest() (uint64, error) { return rs.src.Oldest() }

// CheckpointBytes returns the newest sealed checkpoint: its generation and
// the opaque payload a Replica.Restore accepts. Reading races no writer —
// checkpoints are temp-written and renamed into place.
func (rs *ReplSource) CheckpointBytes() (gen uint64, state []byte, err error) {
	gen, state, _, err = wal.NewestCheckpoint(rs.v.log.Dir())
	return gen, state, err
}

// Stream emits the framed records of every generation past from, in order,
// one emit call per record, until the stream has been caught up and idle
// for window (clean nil return — the long-poll recycle point) or ctx ends.
// A from that predates the retained log returns ErrReplicaStale.
func (rs *ReplSource) Stream(ctx context.Context, from uint64, window time.Duration, emit func(gen uint64, frame []byte) error) error {
	err := rs.src.Stream(ctx, from, window, emit)
	if repl.IsPruned(err) {
		return fmt.Errorf("%w: %w", ErrReplicaStale, err)
	}
	return err
}

// ReplRecord is one committed write unit in replay form, decoded from a
// stream frame. Opaque: followers pass it to Replica.ApplyRecord.
type ReplRecord struct {
	rec wal.Record
}

// Generation returns the generation this record produces when applied.
func (r ReplRecord) Generation() uint64 { return r.rec.Gen }

// ReplFrameReader decodes a change-log stream — the byte sequence a
// ReplSource.Stream emits, typically arriving as an HTTP response body —
// into records. Next returns io.EOF at a clean stream end and
// io.ErrUnexpectedEOF when the stream stops inside a frame (a dropped
// connection; reconnect and resume).
type ReplFrameReader struct {
	fr *wal.FrameReader
}

// NewReplFrameReader wraps a stream body.
func NewReplFrameReader(r io.Reader) *ReplFrameReader {
	return &ReplFrameReader{fr: wal.NewFrameReader(r)}
}

// Next decodes one record.
func (r *ReplFrameReader) Next() (ReplRecord, error) {
	rec, err := r.fr.Next()
	if err != nil {
		return ReplRecord{}, err
	}
	return ReplRecord{rec: rec}, nil
}

// Replica is a read-only follower of a durable primary: it restores from a
// fetched checkpoint payload and replays streamed records, sealing exactly
// one generation per record. It owns no log of its own — a restarted
// follower re-syncs from the primary's checkpoint, which is the durable
// copy of record. Like View it is single-writer: Restore and ApplyRecord
// must run on one goroutine (the serving layer's apply loop), while any
// number of readers use snapshots taken between applies.
type Replica struct {
	v   *View
	a   *ATG
	cfg config
}

// OpenReplica publishes the caller-seeded DB as the replica's provisional
// state at generation 0; Restore replaces it with the primary's checkpoint.
// Durability options are refused — a replica's durability is its primary.
func OpenReplica(a *ATG, db *DB, opts ...Option) (*Replica, error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.durDir != "" {
		return nil, fmt.Errorf("rxview: a replica cannot be durable; its primary's log is the durable copy")
	}
	sys, err := core.Open(a.c, db.db, cfg.opts)
	if err != nil {
		return nil, err
	}
	sys.StartDigest()
	return &Replica{v: &View{sys: sys, db: db}, a: a, cfg: cfg}, nil
}

// View returns the replica's view surface for reads — Query, Snapshot,
// Stats, XML, Generation. The pointer is stable across Restore: serving
// layers hold it once. Writes through it are the caller's responsibility to
// prevent (the server's Replica engine refuses them with
// ErrReadOnlyReplica before they reach here).
func (r *Replica) View() *View { return r.v }

// Generation returns the prefix of the primary's write history the replica
// has applied.
func (r *Replica) Generation() uint64 { return r.v.sys.Generation() }

// Restore replaces the replica's entire state with a checkpoint payload at
// gen, as fetched from the primary, once the decoded payload matches the
// state digest and the ATG fingerprint it carries — a corrupt payload, one
// that is not the state the primary sealed, or one written under another ATG
// is refused with the same taxonomy boot recovery uses, leaving the previous
// state, database included, in place. Single-writer: see Replica.
func (r *Replica) Restore(gen uint64, state []byte) error {
	// Replacing the DB's contents is safe under concurrent readers: sealed
	// snapshots evaluate against the frozen DAG and never touch the
	// relational instance.
	sys, err := restoreSystem(r.a, r.v.db, r.cfg.opts, "replica checkpoint", gen, state, nil)
	if err != nil {
		return err
	}
	r.v.sys = sys
	return nil
}

// ApplyRecord replays one streamed record, advancing the replica by exactly
// one generation. A record that does not continue the replica's generation,
// or whose replay leaves a state other than the one its digest names (the
// error carries both digests), returns ErrCheckpointMismatch: the follower
// lost part of the stream, or is no longer what the primary was, and must
// Restore from a fresh checkpoint rather than go on from a wrong state.
// Single-writer: see Replica.
func (r *Replica) ApplyRecord(rec ReplRecord) error {
	if err := r.v.sys.ApplyCommitRecord(rec.rec); err != nil {
		return &CheckpointMismatchError{Dir: "replication stream", Err: err}
	}
	return nil
}
