package rxview

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rxview/internal/ckpt"
	"rxview/internal/core"
	"rxview/internal/dag"
	"rxview/internal/digest"
	"rxview/internal/obs"
	"rxview/internal/relational"
	"rxview/internal/wal"
)

// Durability glue: the root package writes and restores checkpoints — their
// payload is package ckpt's, the view keeps the index of the last one that
// landed — and installs the commit sink. The commit record needs no glue:
// core fills in a wal.Record (core.CommitRecord is that type), the sink
// passes the slice to the log as it is, and recovery passes what the log
// read back to core.

// defaultCheckpointEvery is the commit count between automatic checkpoints
// when WithCheckpointEvery is not given.
const defaultCheckpointEvery = 256

// What a restore verifies. A checkpoint carries the state digest (package
// digest) of the state it holds, and every commit record the digest of the
// state it leaves; the primary stepped that digest over each record as it built
// it. A restore holds the decoded payload to the checkpoint's digest in one
// pass and replays the suffix through core's ApplyCommitRecord, which steps
// the digest by the same function and compares after every record; the
// digest covers all the state a view keeps. It republishes nothing: equal digests
// prove that the restored state is the state the primary had — nodes,
// edges and rows alike — and what the primary had went through the translator
// whose output the tests hold to σ(I) with the full CheckConsistency after
// every kind of commit. That check stays the ground truth — View.
// CheckConsistency, `xviewctl check` and `verify`, every test — it is just not
// what a reopen pays for. There is one on-disk format, wal.Format: the first
// byte of every checkpoint payload and every record, and the only one a reader
// accepts; a directory written in another format is refused, not upgraded.

// openDurable is Open with WithDurability: recover the newest durable state
// from the directory (or establish the genesis epoch from the provided DB),
// give the log an active segment at that generation, and install the commit
// sink.
func openDurable(a *ATG, db *DB, cfg *config) (*View, error) {
	log, boot, err := wal.Open(cfg.durDir, wal.Options{Policy: cfg.fsync})
	if err != nil {
		return nil, walErr(cfg.durDir, err)
	}

	var sys *core.System
	if boot == nil {
		// Fresh directory: publish from the caller-seeded DB as usual; the
		// checkpoint below makes generation 0 the genesis epoch.
		sys, err = core.Open(a.c, db.db, cfg.opts)
		if err != nil {
			return nil, err
		}
		sys.StartDigest()
	} else {
		for _, w := range boot.Warnings {
			warnTo(cfg.warn, "rxview: recovery: %s", w)
		}
		sys, err = restoreSystem(a, db, cfg.opts, cfg.durDir, boot.Gen, boot.State, boot.Records)
		if err != nil {
			return nil, err
		}
	}

	v := &View{
		sys:       sys,
		db:        db,
		log:       log,
		warn:      cfg.warn,
		ckptEvery: defaultCheckpointEvery,
	}
	if cfg.ckptEvery > 0 {
		v.ckptEvery = uint64(cfg.ckptEvery)
	}
	// Recovery never appends to an old segment, so the log needs a fresh
	// one before the view serves. Genesis has nothing on disk and writes
	// checkpoint 0, file before segment, so a genesis that fails leaves a
	// fresh directory. A recovered state is on disk already — the
	// checkpoint it was read from plus the replayed records — so the old
	// tail is sealed and that is all; the replayed suffix stays ahead of
	// ckptGen and counts toward the next automatic checkpoint. The exception
	// is a recovery that fell back past an unreadable checkpoint: it would
	// serve on the one good checkpoint left until the next trigger, so it
	// drops the unreadable files and writes the state it has just verified.
	switch {
	case boot == nil:
		err = v.checkpointNow()
	case len(boot.Unreadable) > 0:
		for _, g := range boot.Unreadable {
			log.DropCheckpoint(g)
		}
		err = v.checkpointNow()
	default:
		v.ckptGen = boot.Gen
		err = log.Seal(sys.Generation())
	}
	if err != nil {
		return nil, fmt.Errorf("rxview: sealing the boot state: %w", err)
	}
	sys.SetCommitSink(v.sinkRecords, v.afterDurable)
	return v, nil
}

// restoreSystem rebuilds a system from a checkpoint payload sealed at gen
// plus the records that follow it — boot recovery's log suffix, nothing for a
// follower's restore: decode, verify, replace the DB's contents, replay. src
// names where the payload came from in the errors. The payload is decoded
// into a DAG and a database of its own and held to its grammar fingerprint
// and its state digest before the caller's DB is touched, and a restore that
// is refused later — a record that does not replay to its digest — puts the
// DB's contents back: a refused restore changes nothing.
func restoreSystem(a *ATG, db *DB, opts core.Options, src string, gen uint64, state []byte, suffix []wal.Record) (*core.System, error) {
	start := time.Now()
	ck, err := ckpt.Decode(state)
	if err != nil {
		return nil, &CorruptLogError{Dir: src, Err: err}
	}
	if ck.Gen != gen {
		return nil, &CheckpointMismatchError{Dir: src,
			Err: fmt.Errorf("checkpoint payload is for generation %d, its source says %d", ck.Gen, gen)}
	}
	if fp := a.c.Fingerprint(); ck.ATG != fp {
		return nil, &CheckpointMismatchError{Dir: src,
			Err: fmt.Errorf("checkpoint was written under ATG %s, this view was opened with ATG %s", ck.ATG, fp)}
	}
	d, err := dag.DecodeState(ck.DAGState)
	if err != nil {
		return nil, &CorruptLogError{Dir: src, Err: err}
	}
	loaded := relational.NewDatabase(db.db.Schema)
	for _, tb := range ck.Tables {
		// The relation takes the decoded rows as its storage; ck is done
		// with them.
		if err := loaded.Load(tb.Name, tb.Rows); err != nil {
			return nil, &CorruptLogError{Dir: src,
				Err: fmt.Errorf("checkpointed tuple rejected: %w", err)}
		}
	}
	sum := digest.Of(d, loaded)
	if err := digest.Compare(ck.Digest, sum); err != nil {
		return nil, &CheckpointMismatchError{Dir: src,
			Err: fmt.Errorf("checkpoint payload at generation %d: %w", gen, err)}
	}

	db.db.Swap(loaded) // loaded holds the previous contents from here on
	sys, err := core.Recover(a.c, db.db, d, gen, sum, suffix, opts)
	if err != nil {
		db.db.Swap(loaded)
		return nil, &CheckpointMismatchError{Dir: src, Err: fmt.Errorf("restoring generation %d: %w", gen, err)}
	}
	observeRecovery(time.Since(start), len(suffix))
	return sys, nil
}

// What the last successful restore in this process cost — a boot recovery or
// a follower's re-bootstrap: one reading per restore, taken around the whole
// of it, so there is no timer inside the decode and load loops.
var (
	recoveryOnce    sync.Once
	recoveryNanos   atomic.Int64
	recoveryRecords *obs.Gauge
)

func observeRecovery(d time.Duration, records int) {
	recoveryOnce.Do(func() {
		r := obs.Default()
		r.NewGaugeFunc("xview_recovery_last_seconds",
			"Duration of the last restore: checkpoint decode, load, digest verification and log replay (file reads excluded).",
			func() float64 { return time.Duration(recoveryNanos.Load()).Seconds() })
		recoveryRecords = r.NewGauge("xview_recovery_last_records",
			"Commit records the last restore replayed on top of its checkpoint.")
	})
	recoveryNanos.Store(int64(d))
	recoveryRecords.Set(int64(records))
}

// ckptEncodeSeconds times the part of a checkpoint that
// xview_wal_checkpoint_seconds leaves out: serializing the state, on the
// writer — encoding what changed and reading back the rest. The two together
// are the checkpoint's stall.
var ckptEncodeSeconds = sync.OnceValue(func() *obs.Histogram {
	return obs.Default().NewHistogram("xview_checkpoint_encode_seconds",
		"Checkpoint state serialization on the writer goroutine: encoding the ranges that changed and reading the rest back from the previous checkpoint (log rotation and the file write excluded).",
		obs.LatencyBounds())
})

// ckptReusedBytes counts the payload bytes checkpoints read back from the
// previous checkpoint file, CRC-checked, instead of encoding them: set beside
// xview_wal_checkpoint_bytes, the share of a payload that cost no encoding.
var ckptReusedBytes = sync.OnceValue(func() *obs.Counter {
	return obs.Default().NewCounter("xview_checkpoint_reused_bytes_total",
		"Checkpoint payload bytes read back, CRC-checked, from the previous checkpoint file instead of encoded again.")
})

// sinkRecords is the core.CommitSink of a durable view, the one hook on the
// commit path: it appends the commit's records to the log before the commit
// verdict is returned, and publishes to the replication tail, when there is
// one, the frames that append wrote. "A follower sees only what the log
// accepted" is those two statements in that order; the copy is the only one
// a frame gets between the log's buffer and a follower's socket. A refused
// append flips the view into degraded mode and surfaces as a DegradedError;
// the log's all-or-nothing append guarantees the refused records can never
// resurface in a later recovery, so Applied:false is a true verdict at this
// layer (Tx.Commit upgrades it to Applied:true for a prefix group, whose
// applied stages stay in memory).
func (v *View) sinkRecords(recs []wal.Record) error {
	if err := v.log.Append(recs); err != nil {
		v.markDegraded(err)
		return &DegradedError{Cause: err}
	}
	if v.tail != nil {
		for i, r := range recs {
			v.tail.Publish(r.Gen, bytes.Clone(v.log.Frame(i)))
		}
	}
	// The append can succeed and still kill the log (crash-after-fsync:
	// the record is durable, the verdict stands, but the log refuses
	// further writes). Degrade proactively so the next write is rejected
	// up front instead of burning a full pipeline run first.
	if err := v.log.Failed(); err != nil {
		v.markDegraded(err)
	}
	return nil
}

// markDegraded flips the view into degraded (read-only) mode, keeping the
// first cause. Writer-goroutine only.
func (v *View) markDegraded(cause error) {
	if v.degraded.CompareAndSwap(false, true) {
		v.degradedCause = cause
		warnTo(v.warn, "rxview: entering degraded mode: %v", cause)
	}
}

// writable is the degraded-mode guard of the write path: the
// guaranteed-unapplied DegradedError while the view is read-only, else nil.
func (v *View) writable() error {
	if v.degraded.Load() {
		return &DegradedError{Cause: v.degradedCause}
	}
	return nil
}

// Degraded reports whether the view is in degraded (read-only) mode after a
// disk failure: writes are rejected with ErrDegraded, snapshot reads keep
// serving the last acknowledged state, and Recover restores read-write.
// Like Checkpointing it is safe to call from any goroutine — it is the
// health-probe hook. Always false without durability.
func (v *View) Degraded() bool { return v.degraded.Load() }

// Recover attempts to leave degraded mode: it reopens the log (repairing
// the torn tail of the active segment, exactly like boot recovery) and
// seals the in-memory state with a fresh checkpoint, then restores
// read-write atomically. No-op when the view is not degraded; ErrTxOpen
// while a transaction is open.
//
// The in-memory state is authoritative here: every refused write was
// reported either guaranteed-unapplied (rolled back, absent from memory) or
// applied-but-not-durable, so checkpointing memory both re-establishes the
// active segment and — honestly — makes the indeterminate prefix durable
// after all. Serving layers call this from a backoff probe routed through
// their writer goroutine; it must not race other View methods.
func (v *View) Recover() error {
	if v.log == nil || !v.degraded.Load() {
		return nil
	}
	if v.sys.InTxn() {
		return ErrTxOpen
	}
	warning, err := v.log.Reopen()
	if warning != "" {
		warnTo(v.warn, "rxview: recovery: %s", warning)
	}
	if err != nil {
		return err
	}
	if err := v.checkpointNow(); err != nil {
		return err
	}
	v.degradedCause = nil
	v.degraded.Store(false)
	warnTo(v.warn, "rxview: recovered from degraded mode at generation %d", v.ckptGen)
	return nil
}

// afterDurable runs after each durable commit, once the system is quiescent:
// the periodic checkpoint trigger. The checkpoint runs on the writer, file
// first (checkpointNow), so the commit that triggers it returns once
// ckpt-<gen> is on disk and the log has rotated. A failed checkpoint is
// reported and retried at the next commit — the log keeps every record since
// the last one that landed, so nothing is lost, the log just grows — unless
// it killed the log (a Seal that could not start the next segment): then the
// view degrades, as it does when the log refuses a record, and Recover
// restores read-write.
func (v *View) afterDurable(gen uint64) {
	if gen-v.ckptGen < v.ckptEvery {
		return
	}
	if err := v.checkpointNow(); err != nil {
		warnTo(v.warn, "rxview: checkpoint at generation %d failed: %v", v.sys.Generation(), err)
		if cause := v.log.Failed(); cause != nil {
			v.markDegraded(cause)
		}
	}
}

// checkpointNow writes a checkpoint of the current state on the calling
// (writer) goroutine, file first (wal.Log.WriteCheckpoint): the one
// checkpoint protocol, behind every checkpoint the view writes. The state
// is encoded against the index of the last checkpoint that landed, which
// reads back what did not change since; the new index replaces it only once
// this checkpoint has landed too, and any failure drops it, so the next
// checkpoint encodes everything.
func (v *View) checkpointNow() error {
	v.ckptBusy.Store(true)
	defer v.ckptBusy.Store(false)
	gen := v.sys.Generation()
	sp := obs.StartSpan(ckptEncodeSeconds())
	buf, ix := ckpt.Encode(checkpointState(v.sys), v.ckptIx)
	sp.End()
	v.ckptIx = nil
	if err := v.log.WriteCheckpoint(gen, buf); err != nil {
		return err
	}
	ix.Landed(v.log.CheckpointFile(gen, len(buf)-wal.CheckpointHeadroom))
	v.ckptIx = ix
	ckptReusedBytes().Add(uint64(ix.Reused()))
	v.ckptGen = gen
	return nil
}

// checkpointState is what a checkpoint of sys holds.
func checkpointState(sys *core.System) ckpt.State {
	sum, _ := sys.Digest()
	return ckpt.State{
		Gen:    sys.Generation(),
		Digest: sum,
		ATG:    sys.ATG.Fingerprint(),
		DB:     sys.DB,
		DAG:    sys.DAG,
	}
}

// Checkpoint seals the current epoch: the full view state is serialized at
// the current generation, the log rotates to a fresh segment, and the
// prefix the checkpoint supersedes is pruned. Durable views checkpoint
// automatically (WithCheckpointEvery); an explicit call does the same at once
// and bounds recovery time before a planned stop. No-op on a view without
// durability; ErrTxOpen while a transaction is open.
func (v *View) Checkpoint() error {
	if v.log == nil {
		return nil
	}
	if v.sys.InTxn() {
		return ErrTxOpen
	}
	return v.checkpointNow()
}

// Checkpointing reports whether a checkpoint is stalling the writer right
// now: the whole of it — serializing the state (encoding what changed since
// the previous checkpoint, reading the rest back from its file), writing and
// syncing the file, rotating the log and pruning. Unlike the View's other
// methods it is safe to call from any goroutine: it is the readiness probe
// serving layers fold into /healthz so load balancers drain a node during
// the stall. Always false without durability.
func (v *View) Checkpointing() bool { return v.ckptBusy.Load() }

// Close flushes a final checkpoint and closes the log, so the next Open
// recovers without replaying anything. No-op on a view without durability
// (and on repeat calls); the view itself stays usable, just no longer
// durable.
func (v *View) Close() error {
	if v.log == nil {
		return nil
	}
	err := v.Checkpoint()
	if cerr := v.log.Close(); err == nil {
		err = cerr
	}
	v.log = nil
	v.sys.SetCommitSink(nil, nil)
	return err
}

// warnTo formats a finding into the warning sink, if one is installed.
func warnTo(warn func(string), format string, args ...any) {
	if warn != nil {
		warn(fmt.Sprintf(format, args...))
	}
}

// walErr maps wal-layer sentinel errors into the public taxonomy.
func walErr(dir string, err error) error {
	switch {
	case errors.Is(err, wal.ErrCorrupt):
		return &CorruptLogError{Dir: dir, Err: err}
	case errors.Is(err, wal.ErrMismatch):
		return &CheckpointMismatchError{Dir: dir, Err: err}
	}
	return err
}
