package rxview

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"rxview/internal/atg"
	"rxview/internal/core"
	"rxview/internal/dag"
	"rxview/internal/digest"
	"rxview/internal/obs"
	"rxview/internal/relational"
	"rxview/internal/wal"
)

// Durability glue: the root package owns the checkpoint payload format and
// installs the commit sink. The commit record needs no glue: core fills in a
// wal.Record (core.CommitRecord is that type), the sink passes the slice to
// the log as it is, and recovery passes what the log read back to core.

// defaultCheckpointEvery is the commit count between automatic checkpoints
// when WithCheckpointEvery is not given.
const defaultCheckpointEvery = 256

// What a restore verifies. A checkpoint carries the state digest (package
// digest) of the state it holds, and every commit record the digest of the
// state it leaves; the primary stepped that digest over each record as it built
// it. A restore holds the decoded payload to the checkpoint's digest in one
// pass, replays the suffix through core's ApplyCommitRecord, which steps the
// digest by the same function and compares after every record, and validates
// L, which the digest does not cover. It republishes nothing: equal digests
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
// is refused later — a record that does not replay to its digest, an L that
// is no order of the DAG — puts the DB's contents back: a refused restore
// changes nothing.
func restoreSystem(a *ATG, db *DB, opts core.Options, src string, gen uint64, state []byte, suffix []wal.Record) (*core.System, error) {
	start := time.Now()
	ck, err := decodeCheckpoint(state)
	if err != nil {
		return nil, &CorruptLogError{Dir: src, Err: err}
	}
	if ck.gen != gen {
		return nil, &CheckpointMismatchError{Dir: src,
			Err: fmt.Errorf("checkpoint payload is for generation %d, its source says %d", ck.gen, gen)}
	}
	if fp := a.c.Fingerprint(); ck.atg != fp {
		return nil, &CheckpointMismatchError{Dir: src,
			Err: fmt.Errorf("checkpoint was written under ATG %s, this view was opened with ATG %s", ck.atg, fp)}
	}
	d, err := dag.DecodeState(ck.dagState)
	if err != nil {
		return nil, &CorruptLogError{Dir: src, Err: err}
	}
	for _, id := range ck.order {
		if int(id) >= d.Cap() {
			return nil, &CorruptLogError{Dir: src, Err: fmt.Errorf("checkpoint: L names node %d of %d", id, d.Cap())}
		}
	}
	loaded := relational.NewDatabase(db.db.Schema)
	for _, tb := range ck.tables {
		// The relation takes the decoded rows as its storage; ck is done
		// with them.
		if err := loaded.Load(tb.name, tb.rows); err != nil {
			return nil, &CorruptLogError{Dir: src,
				Err: fmt.Errorf("checkpointed tuple rejected: %w", err)}
		}
	}
	sum := digest.Of(d, loaded)
	if err := digest.Compare(ck.digest, sum); err != nil {
		return nil, &CheckpointMismatchError{Dir: src,
			Err: fmt.Errorf("checkpoint payload at generation %d: %w", gen, err)}
	}

	db.db.Swap(loaded) // loaded holds the previous contents from here on
	sys, err := core.Recover(a.c, db.db, d, ck.order, gen, sum, suffix, opts)
	if err == nil {
		err = sys.Topo.Validate(sys.DAG)
	}
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
// writer.
var ckptEncodeSeconds = sync.OnceValue(func() *obs.Histogram {
	return obs.Default().NewHistogram("xview_checkpoint_encode_seconds",
		"Checkpoint state serialization on the writer goroutine (log rotation and the file write excluded).",
		obs.LatencyBounds())
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
// checkpoint protocol, behind every checkpoint the view writes.
func (v *View) checkpointNow() error {
	v.ckptBusy.Store(true)
	defer v.ckptBusy.Store(false)
	gen := v.sys.Generation()
	sp := obs.StartSpan(ckptEncodeSeconds())
	buf := encodeCheckpoint(v.sys)
	sp.End()
	if err := v.log.WriteCheckpoint(gen, buf); err != nil {
		return err
	}
	v.ckptGen = gen
	return nil
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
// now: the whole of it — serializing the full state, writing and syncing the
// file, rotating the log and pruning. Unlike the View's other methods it is
// safe to call from any goroutine: it is the readiness probe serving layers
// fold into /healthz so load balancers drain a node during the stall. Always
// false without durability.
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

// checkpoint is the decoded payload: the generation, the state digest and the
// grammar fingerprint, then the relational instance, the DAG with its full
// identity table, and the topological order — all of it at one sealed epoch.
type checkpoint struct {
	gen      uint64
	digest   digest.Sum      // of the state below
	atg      atg.Fingerprint // of the grammar the state was published under
	tables   []ckptTable
	dagState []byte
	order    []dag.NodeID
}

// ckptTable is one decoded table. The rows are cut from slabs (package slab)
// and meant for one owner: the relation they are loaded into.
type ckptTable struct {
	name string
	rows []relational.Tuple
}

// encodeCheckpoint serializes the full state of the system into one buffer:
// wal.CheckpointHeadroom free bytes for the file's framing, then the
// payload — format, generation, the state digest, the grammar fingerprint,
// the tables, the DAG state, and L.
//
// The writer pays for this inside the checkpoint stall, and for collecting
// what it leaves behind, so the buffer is sized before anything is encoded
// and everything is encoded once, in order, straight into it: each relation
// knows the encoded length of its rows (Relation.EncodedLen), and the DAG
// the length of its state (DAG.StateLen).
//
// A table's rows are written in Scan order — slot order, the order the
// relation holds them in, not the order of their values — because no reader
// needs another: the decoder loads rows in whatever order it is given, and a
// restore is held to the state digest, a multiset hash that no order changes.
// The digest, not the payload's bytes, is what identifies a state: one
// in-memory state always writes the same bytes, but two nodes at one
// generation may write their rows in different orders.
func encodeCheckpoint(sys *core.System) []byte {
	vlen := relational.UvarintLen
	gen := sys.Generation()
	names := sys.DB.Schema.TableNames()
	sum, _ := sys.Digest()
	fp := sys.ATG.Fingerprint()
	tablesEnd := wal.CheckpointHeadroom + 1 + vlen(gen) + digest.Size + len(fp) + vlen(uint64(len(names)))
	for _, name := range names {
		rel := sys.DB.Rel(name)
		tablesEnd += vlen(uint64(len(name))) + len(name) + vlen(uint64(rel.Len())) + rel.EncodedLen()
	}
	stateLen := sys.DAG.StateLen()
	order := sys.Topo.Nodes()
	size := tablesEnd + vlen(uint64(stateLen)) + stateLen + vlen(uint64(len(order)))
	for _, id := range order {
		size += vlen(uint64(id))
	}

	buf := make([]byte, size)
	dst := append(buf[:wal.CheckpointHeadroom], wal.Format)
	dst = binary.AppendUvarint(dst, gen)
	dst = sum.Append(dst)
	dst = append(dst, fp[:]...)
	dst = binary.AppendUvarint(dst, uint64(len(names)))
	for _, name := range names {
		rel := sys.DB.Rel(name)
		dst = binary.AppendUvarint(dst, uint64(len(name)))
		dst = append(dst, name...)
		dst = binary.AppendUvarint(dst, uint64(rel.Len()))
		rel.Scan(func(t relational.Tuple) bool {
			dst = relational.AppendTuple(dst, t)
			return true
		})
	}
	if len(dst) != tablesEnd {
		panic(fmt.Sprintf("rxview: checkpoint tables measured to end at %d, encoded to %d", tablesEnd, len(dst)))
	}
	dst = binary.AppendUvarint(dst, uint64(stateLen))
	stateStart := len(dst)
	dst = sys.DAG.AppendState(dst)
	if len(dst)-stateStart != stateLen {
		panic(fmt.Sprintf("rxview: checkpoint DAG state measured %d bytes, encoded %d", stateLen, len(dst)-stateStart))
	}
	dst = binary.AppendUvarint(dst, uint64(len(order)))
	for _, id := range order {
		dst = binary.AppendUvarint(dst, uint64(id))
	}
	if len(dst) != size {
		panic(fmt.Sprintf("rxview: checkpoint measured %d bytes, encoded %d", size, len(dst)))
	}
	return buf
}

// decodeCheckpointHeader decodes what a payload says about itself — format,
// generation, state digest and grammar fingerprint — and returns the rest of
// the payload.
func decodeCheckpointHeader(b []byte) (*checkpoint, []byte, error) {
	if err := wal.CheckFormat(b); err != nil {
		return nil, nil, fmt.Errorf("checkpoint: %w", err)
	}
	ck := &checkpoint{}
	gen, w := binary.Uvarint(b[1:])
	if w <= 0 {
		return nil, nil, fmt.Errorf("checkpoint: bad generation")
	}
	ck.gen, b = gen, b[1+w:]
	if len(b) < digest.Size+len(ck.atg) {
		return nil, nil, fmt.Errorf("checkpoint: bad digest")
	}
	ck.digest = digest.Decode(b)
	b = b[digest.Size:]
	b = b[copy(ck.atg[:], b):]
	return ck, b, nil
}

func decodeCheckpoint(b []byte) (*checkpoint, error) {
	ck, b, err := decodeCheckpointHeader(b)
	if err != nil {
		return nil, err
	}
	var w int
	var u uint64
	next := func(what string) (uint64, error) {
		u, w = binary.Uvarint(b)
		if w <= 0 {
			return 0, fmt.Errorf("checkpoint: bad %s", what)
		}
		b = b[w:]
		return u, nil
	}
	nt, err := next("table count")
	if err != nil {
		return nil, err
	}
	var rows relational.Slab
	for i := uint64(0); i < nt; i++ {
		nl, err := next("table name length")
		if err != nil {
			return nil, err
		}
		if nl > uint64(len(b)) {
			return nil, fmt.Errorf("checkpoint: table name exceeds input")
		}
		tb := ckptTable{name: string(b[:nl])}
		b = b[nl:]
		cnt, err := next("tuple count")
		if err != nil {
			return nil, err
		}
		if cnt > uint64(len(b)) { // a tuple takes a byte at the least
			return nil, fmt.Errorf("checkpoint: table %s: %d tuples exceed input", tb.name, cnt)
		}
		tb.rows = make([]relational.Tuple, cnt)
		for j := range tb.rows {
			t, rest, err := rows.DecodeTuple(b)
			if err != nil {
				return nil, fmt.Errorf("checkpoint: table %s tuple %d: %w", tb.name, j, err)
			}
			tb.rows[j], b = t, rest
		}
		ck.tables = append(ck.tables, tb)
	}
	dl, err := next("DAG state length")
	if err != nil {
		return nil, err
	}
	if dl > uint64(len(b)) {
		return nil, fmt.Errorf("checkpoint: DAG state exceeds input")
	}
	ck.dagState = b[:dl]
	b = b[dl:]
	on, err := next("order length")
	if err != nil {
		return nil, err
	}
	if on > uint64(len(b)) { // an entry takes a byte at the least
		return nil, fmt.Errorf("checkpoint: order of %d entries exceeds input", on)
	}
	ck.order = make([]dag.NodeID, on)
	for i := range ck.order {
		id, err := next("order entry")
		if err != nil || id > math.MaxInt32 {
			return nil, fmt.Errorf("checkpoint: bad order entry")
		}
		ck.order[i] = dag.NodeID(id)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("checkpoint: %d trailing bytes", len(b))
	}
	return ck, nil
}
